package apps

import (
	"testing"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/queryopt"
)

// queryDepth returns the number of stages on the longest root-leaf path.
func queryDepth(n *queryopt.Node) int {
	max := 0
	for _, e := range n.Edges {
		if d := queryDepth(e.Child); d > max {
			max = d
		}
	}
	return max + 1
}

func newDeployment(t *testing.T, gpus int) *cluster.Deployment {
	t.Helper()
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: gpus, Seed: 1, Epoch: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGameBuilder(t *testing.T) {
	mdb := model.Catalog()
	spec, err := Game(4, 100)(mdb)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Sessions) != 8 {
		t.Fatalf("game sessions = %d, want 8 (digits+icon per game)", len(spec.Sessions))
	}
	// Variants must be registered and resolvable to base calibrations.
	for _, s := range spec.Sessions {
		if _, err := mdb.Get(s.Spec.ModelID); err != nil {
			t.Fatalf("model %s not registered", s.Spec.ModelID)
		}
		base := profiler.BaseOf(s.Spec.ModelID)
		if base != model.LeNet5 && base != model.ResNet50 {
			t.Fatalf("unexpected base %s for %s", base, s.Spec.ModelID)
		}
	}
	// Zipf rates: first game busier than last.
	if spec.Sessions[0].Spec.ExpectedRate <= spec.Sessions[len(spec.Sessions)-2].Spec.ExpectedRate {
		t.Fatal("Zipf rate split not decreasing")
	}
}

func TestGameVariantsShareWithBase(t *testing.T) {
	mdb := model.Catalog()
	if _, err := Game(3, 100)(mdb); err != nil {
		t.Fatal(err)
	}
	a := mdb.MustGet("lenet5-v100")
	b := mdb.MustGet("lenet5-v101")
	want := a.NumLayers() - 1
	if got := model.CommonPrefixLen(a, b); got != want {
		t.Fatalf("game digit variants share %d layers, want %d", got, want)
	}
}

func TestBuildersRegisterIdempotently(t *testing.T) {
	mdb := model.Catalog()
	if _, err := Game(3, 100)(mdb); err != nil {
		t.Fatal(err)
	}
	if _, err := Game(3, 100)(mdb); err != nil {
		t.Fatalf("second build failed: %v", err)
	}
}

func TestAllBuildersDeploy(t *testing.T) {
	d := newDeployment(t, 64)
	for _, b := range All(0.2) {
		if _, err := Deploy(d, b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Pool.InUse() == 0 {
		t.Fatal("no GPUs in use after deploying all apps")
	}
}

func TestTrafficRushHourRaisesGamma(t *testing.T) {
	mdb := model.Catalog()
	calm, err := Traffic(10, 2, false)(mdb)
	if err != nil {
		t.Fatal(err)
	}
	rush, err := Traffic(10, 2, true)(mdb)
	if err != nil {
		t.Fatal(err)
	}
	gc := calm.Queries[0].Spec.Query.Root.Edges[0].Gamma
	gr := rush.Queries[0].Spec.Query.Root.Edges[0].Gamma
	if gr <= gc {
		t.Fatalf("rush-hour gamma %v not above non-rush %v", gr, gc)
	}
}

func TestWithPoisson(t *testing.T) {
	mdb := model.Catalog()
	spec, err := Game(2, 50)(mdb)
	if err != nil {
		t.Fatal(err)
	}
	p := WithPoisson(spec)
	for _, s := range p.Sessions {
		if s.Proc == nil {
			t.Fatal("Poisson proc not set")
		}
	}
}

func TestQueriesValidate(t *testing.T) {
	mdb := model.Catalog()
	builders := map[string]Builder{
		"traffic": Traffic(5, 2, false),
		"dance":   Dance(10),
		"bb":      Billboard(10),
		"bike":    Bike(10),
		"amber":   Amber(10),
		"logo":    Logo(10),
	}
	for name, b := range builders {
		spec, err := b(mdb)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, q := range spec.Queries {
			if err := q.Spec.Query.Validate(); err != nil {
				t.Fatalf("%s query invalid: %v", name, err)
			}
		}
	}
	if len(Names()) != 7 {
		t.Fatal("Names should list 7 apps")
	}
}

func TestQueryStageCounts(t *testing.T) {
	// Table 4's QA-k stage counts.
	mdb := model.Catalog()
	depth := func(b Builder) int {
		spec, err := b(mdb)
		if err != nil {
			t.Fatal(err)
		}
		return queryDepth(spec.Queries[0].Spec.Query.Root)
	}
	cases := map[string]struct {
		b    Builder
		want int
	}{
		"traffic": {Traffic(1, 1, false), 2},
		"dance":   {Dance(1), 2},
		"bb":      {Billboard(1), 3},
		"bike":    {Bike(1), 4},
		"amber":   {Amber(1), 4},
		"logo":    {Logo(1), 5},
	}
	for name, c := range cases {
		if got := depth(c.b); got != c.want {
			t.Errorf("%s depth = %d, want %d", name, got, c.want)
		}
	}
}

func TestGameSLOVariant(t *testing.T) {
	mdb := model.Catalog()
	spec, err := GameSLO(2, 50, 120*time.Millisecond)(mdb)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spec.Sessions {
		if s.Spec.SLO != 120*time.Millisecond {
			t.Fatalf("session %s SLO = %v", s.Spec.ID, s.Spec.SLO)
		}
	}
}

func TestAllUsesRelaxedGameSLO(t *testing.T) {
	mdb := model.Catalog()
	builders := All(0.1)
	spec, err := builders[0](mdb)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "game" {
		t.Fatalf("first app = %s", spec.Name)
	}
	// The large-scale mix runs on K80s; game sessions carry 100ms there.
	if got := spec.Sessions[0].Spec.SLO; got != 100*time.Millisecond {
		t.Fatalf("large-deployment game SLO = %v, want 100ms", got)
	}
}

func TestVariantNamespacesDisjoint(t *testing.T) {
	mdb := model.Catalog()
	// game and logo both specialize LeNet; their variant IDs must differ.
	if _, err := Game(2, 10)(mdb); err != nil {
		t.Fatal(err)
	}
	if _, err := Logo(5)(mdb); err != nil {
		t.Fatal(err)
	}
	gameLenet := mdb.MustGet("lenet5-v100")
	logoLenet := mdb.MustGet("lenet5-v500")
	if gameLenet == logoLenet {
		t.Fatal("apps share a variant instance")
	}
	// Both still share the base prefix (one family).
	if got := model.CommonPrefixLen(gameLenet, logoLenet); got != gameLenet.NumLayers()-1 {
		t.Fatalf("cross-app variants share %d layers", got)
	}
}

// TestDeployAfterFirstEpoch deploys a second app whose specialized
// variants are registered only after the first epoch has planned: the
// scheduler must derive plan profiles for them rather than plan against a
// view of the model set frozen at that epoch.
func TestDeployAfterFirstEpoch(t *testing.T) {
	d := newDeployment(t, 16)
	if _, err := Deploy(d, Game(1, 100)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(d, Billboard(50)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sched.RunEpoch(); err != nil {
		t.Fatalf("epoch after deploying billboard: %v", err)
	}
}
