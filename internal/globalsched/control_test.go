package globalsched

import (
	"testing"
	"time"

	"nexus/internal/model"
	"nexus/internal/queryopt"
	"nexus/internal/scheduler"
)

func TestRatesChangedMaterially(t *testing.T) {
	prev := map[string]float64{"a": 100, "b": 1}
	cases := []struct {
		name     string
		sessions []scheduler.Session
		want     bool
	}{
		{"unchanged", []scheduler.Session{{ID: "a", Rate: 100}, {ID: "b", Rate: 1}}, false},
		{"small relative wobble", []scheduler.Session{{ID: "a", Rate: 110}, {ID: "b", Rate: 1}}, false},
		{"tiny session doubled", []scheduler.Session{{ID: "a", Rate: 100}, {ID: "b", Rate: 2.5}}, false},
		{"big jump", []scheduler.Session{{ID: "a", Rate: 160}, {ID: "b", Rate: 1}}, true},
		{"session added", []scheduler.Session{{ID: "a", Rate: 100}, {ID: "b", Rate: 1}, {ID: "c", Rate: 5}}, true},
		{"session renamed", []scheduler.Session{{ID: "a", Rate: 100}, {ID: "z", Rate: 1}}, true},
	}
	for _, c := range cases {
		if got := ratesChangedMaterially(prev, c.sessions); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSpreadReplicasUsesSpares(t *testing.T) {
	cfg := nexusConfig()
	cfg.SpreadReplicas = true
	e := newEnv(t, cfg, 8)
	if _, err := e.sched.AddSession(SessionSpec{
		ID: "s", ModelID: model.InceptionV3, SLO: 100 * time.Millisecond, ExpectedRate: 500,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	// One plan node, but the whole fixed pool should be in use.
	if e.sched.Plan().GPUCount() >= 8 {
		t.Fatalf("plan used %d nodes; the workload should need fewer", e.sched.Plan().GPUCount())
	}
	if e.pool.InUse() != 8 {
		t.Fatalf("spreading left GPUs idle: %d of 8 in use", e.pool.InUse())
	}
	// Replica assignments cover the pool and stay stable across epochs.
	before := e.sched.Assignments()
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	after := e.sched.Assignments()
	for node, bes := range before {
		if len(after[node]) != len(bes) {
			t.Fatalf("replica count for %s changed %d -> %d without load change", node, len(bes), len(after[node]))
		}
	}
}

func TestNoSpreadingWhenElastic(t *testing.T) {
	cfg := nexusConfig() // SpreadReplicas false
	e := newEnv(t, cfg, 8)
	if _, err := e.sched.AddSession(SessionSpec{
		ID: "s", ModelID: model.InceptionV3, SLO: 100 * time.Millisecond, ExpectedRate: 500,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if e.pool.InUse() >= 8 {
		t.Fatalf("elastic deployment grabbed the whole pool: %d", e.pool.InUse())
	}
}

func TestStageHeadroomAppliedToChildren(t *testing.T) {
	e := newEnv(t, nexusConfig(), 16)
	q := trafficQuery()
	if err := e.sched.AddQuery(QuerySpec{Query: q, ExpectedRate: 50}); err != nil {
		t.Fatal(err)
	}
	sessions, _, err := e.sched.buildSessions()
	if err != nil {
		t.Fatal(err)
	}
	var rootRate, childRate float64
	for _, s := range sessions {
		switch s.ID {
		case "traffic/det":
			rootRate = s.Rate
		case "traffic/car":
			childRate = s.Rate
		}
	}
	// Root: 50 * 1.1 headroom. Child: root * gamma(1) * 1.25 stage headroom.
	if rootRate < 54 || rootRate > 56 {
		t.Fatalf("root rate %v, want ~55", rootRate)
	}
	wantChild := rootRate * 1.25
	if childRate < wantChild*0.99 || childRate > wantChild*1.01 {
		t.Fatalf("child rate %v, want ~%v (stage headroom)", childRate, wantChild)
	}
}

func TestObliviousPlanStableAcrossQuietEpochs(t *testing.T) {
	cfg := nexusConfig()
	cfg.Squishy = false
	cfg.ObliviousGPUs = 4
	e := newEnv(t, cfg, 4)
	if _, err := e.sched.AddSession(SessionSpec{
		ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	first := e.sched.Plan()
	// No traffic observed: repeated epochs must keep the identical plan
	// object (the stability guard short-circuits re-packing).
	for i := 0; i < 3; i++ {
		if err := e.sched.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if e.sched.Plan() != first {
		t.Fatal("oblivious plan replaced without a material rate change")
	}
}

func trafficQuery() *queryopt.Query {
	return &queryopt.Query{
		Name: "traffic", SLO: 400 * time.Millisecond,
		Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
			{Gamma: 1, Child: &queryopt.Node{Name: "car", ModelID: model.GoogLeNetCar}},
		}},
	}
}
