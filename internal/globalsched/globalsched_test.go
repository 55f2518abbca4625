package globalsched

import (
	"fmt"
	"testing"
	"time"

	"math/rand"

	"nexus/internal/backend"
	"nexus/internal/frontend"
	"nexus/internal/gpusim"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/queryopt"
	"nexus/internal/scheduler"
	"nexus/internal/session"
	"nexus/internal/simclock"
	"nexus/internal/workload"
)

// fakePool is a fixed-size backend pool for tests.
type fakePool struct {
	clock    *simclock.Clock
	capacity int
	next     int
	inUse    map[string]*backend.Backend
	free     []*backend.Backend
	cfg      backend.Config
	onDone   backend.CompletionFunc
	// deny makes Acquire fail while Capacity still reports free GPUs: the
	// pool cannot host a plan that admission control accepted.
	deny bool
}

func newFakePool(clock *simclock.Clock, capacity int, cfg backend.Config, onDone backend.CompletionFunc) *fakePool {
	return &fakePool{clock: clock, capacity: capacity, inUse: make(map[string]*backend.Backend), cfg: cfg, onDone: onDone}
}

func (p *fakePool) Acquire() (string, *backend.Backend, error) {
	if p.deny {
		return "", nil, fmt.Errorf("pool denied acquisition")
	}
	if len(p.free) > 0 {
		be := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		p.inUse[be.ID] = be
		return be.ID, be, nil
	}
	if len(p.inUse) >= p.capacity {
		return "", nil, fmt.Errorf("pool exhausted (%d in use)", len(p.inUse))
	}
	id := fmt.Sprintf("be%d", p.next)
	p.next++
	dev := gpusim.New(p.clock, "gpu-"+id, profiler.GTX1080Ti, gpusim.Exclusive)
	be := backend.New(id, p.clock, dev, p.cfg, p.onDone)
	p.inUse[id] = be
	return id, be, nil
}

func (p *fakePool) Release(id string) {
	if be, ok := p.inUse[id]; ok {
		delete(p.inUse, id)
		if be.Alive() {
			p.free = append(p.free, be)
		} else {
			// Dead backends are parked outside the grantable pool, like
			// the real cluster pool's down set.
			p.capacity--
		}
	}
}

func (p *fakePool) Get(id string) *backend.Backend { return p.inUse[id] }
func (p *fakePool) InUse() int                     { return len(p.inUse) }
func (p *fakePool) Capacity() int                  { return p.capacity }

type env struct {
	clock   *simclock.Clock
	pool    *fakePool
	fe      *frontend.Frontend
	sched   *Scheduler
	mdb     *model.DB
	good    int
	missed  int
	dropped int
}

// stamp gives a generator its session's handle, as a deployment does.
func (e *env) stamp(g *workload.Generator) {
	g.Handle, _ = e.sched.names.Lookup(g.Session)
}

func newEnv(t testing.TB, cfg Config, poolSize int) *env {
	t.Helper()
	e := &env{clock: simclock.New()}
	onDone := func(req backend.Request, outcome backend.Outcome, at time.Duration) {
		switch {
		case outcome.Bad():
			e.dropped++
		case at > req.Deadline:
			e.missed++
		default:
			e.good++
		}
	}
	e.pool = newFakePool(e.clock, poolSize, backend.Config{Overlap: true}, onDone)
	e.mdb = model.Catalog()
	if _, err := model.SpecializeFamily(e.mdb, model.ResNet50, 4, 1); err != nil {
		t.Fatal(err)
	}
	pdb, err := profiler.CatalogProfiles(e.mdb)
	if err != nil {
		t.Fatal(err)
	}
	profiles := make(map[string]*profiler.Profile)
	for _, id := range e.mdb.IDs() {
		if p, err := pdb.Get(id, profiler.GTX1080Ti); err == nil {
			profiles[id] = p
		}
	}
	// Backends map is filled lazily by the pool; the frontend needs a live
	// view, so share the pool's inUse map.
	names := session.NewTable()
	e.fe = frontend.New(e.clock, poolBackends(e.pool), names, 0,
		func(req workload.Request, reason backend.Outcome) { e.dropped++ })
	e.sched = New(e.clock, e.pool, []*frontend.Frontend{e.fe}, names, e.mdb, profiles, cfg)
	return e
}

// poolBackends returns the live map the frontend dereferences.
func poolBackends(p *fakePool) map[string]*backend.Backend { return p.inUse }

func nexusConfig() Config {
	return Config{
		Epoch:         10 * time.Second,
		QueryAnalysis: true,
		PrefixBatch:   true,
		Squishy:       true,
	}
}

func TestAddSessionValidation(t *testing.T) {
	e := newEnv(t, nexusConfig(), 4)
	if _, err := e.sched.AddSession(SessionSpec{ID: "", ModelID: model.ResNet50, SLO: time.Second}); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := e.sched.AddSession(SessionSpec{ID: "s", ModelID: "ghost", SLO: time.Second}); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := e.sched.AddSession(SessionSpec{ID: "s", ModelID: model.ResNet50, SLO: 0}); err == nil {
		t.Error("zero SLO accepted")
	}
}

func TestEpochDeploysSession(t *testing.T) {
	e := newEnv(t, nexusConfig(), 4)
	if _, err := e.sched.AddSession(SessionSpec{
		ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if e.pool.InUse() == 0 {
		t.Fatal("no backends acquired")
	}
	if got := e.fe.Sessions(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("routable sessions = %v", got)
	}
	// Serve traffic end to end.
	e.clock.RunUntil(2 * time.Second) // model load
	rng := rand.New(rand.NewSource(1))
	e.stamp(workload.Start(e.clock, rng, "s", 100*time.Millisecond, workload.Uniform{Rate: 100},
		e.clock.Now()+10*time.Second, func(r workload.Request) { e.fe.Dispatch(r) }))
	e.clock.Run()
	total := e.good + e.missed + e.dropped
	if total < 900 {
		t.Fatalf("completed %d requests", total)
	}
	if bad := float64(e.missed+e.dropped) / float64(total); bad > 0.01 {
		t.Fatalf("bad rate %.3f", bad)
	}
}

func TestPrefixGroupingReducesGPUs(t *testing.T) {
	// Four ResNet-50 variants with the same SLO: with prefix batching they
	// share units; without, they are packed separately.
	addVariants := func(e *env) {
		for i := 0; i < 4; i++ {
			if _, err := e.sched.AddSession(SessionSpec{
				ID:      fmt.Sprintf("s%d", i),
				ModelID: fmt.Sprintf("%s-v%d", model.ResNet50, i),
				SLO:     150 * time.Millisecond, ExpectedRate: 150,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	withPB := newEnv(t, nexusConfig(), 16)
	addVariants(withPB)
	if err := withPB.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	noPB := nexusConfig()
	noPB.PrefixBatch = false
	withoutPB := newEnv(t, noPB, 16)
	addVariants(withoutPB)
	if err := withoutPB.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if withPB.pool.InUse() > withoutPB.pool.InUse() {
		t.Fatalf("prefix batching used %d GPUs, without %d", withPB.pool.InUse(), withoutPB.pool.InUse())
	}
	// The grouped plan should contain a pg/ unit.
	found := false
	for _, g := range withPB.sched.Plan().GPUs {
		for _, a := range g.Allocs {
			if len(a.SessionID) > 3 && a.SessionID[:3] == "pg/" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no prefix group in plan")
	}
}

// TestPrefixGroupsApartWithinMillisecond: two SLOs in the same whole
// millisecond (80 ms and 80.5 ms, so 77 ms and 77.5 ms after slack) form
// two prefix groups with two names, each holding only its own members,
// and whole-millisecond names keep their old form.
func TestPrefixGroupsApartWithinMillisecond(t *testing.T) {
	e := newEnv(t, nexusConfig(), 16)
	slos := []time.Duration{80 * time.Millisecond, 80 * time.Millisecond, 80500 * time.Microsecond, 80500 * time.Microsecond}
	for i, slo := range slos {
		if _, err := e.sched.AddSession(SessionSpec{
			ID:      fmt.Sprintf("s%d", i),
			ModelID: fmt.Sprintf("%s-v%d", model.ResNet50, i),
			SLO:     slo, ExpectedRate: 100,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"pg/resnet50/77ms":   {"s0", "s1"},
		"pg/resnet50/77.5ms": {"s2", "s3"},
	}
	got := make(map[string][]string)
	for id, g := range e.sched.groups {
		got[id] = g.members
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("groups = %v, want %v", got, want)
	}
	for id, members := range want {
		if g := e.sched.groups[id]; g.profile == nil || g.prefix == nil || g.suffix == nil {
			t.Errorf("%s lacks a combined, prefix or suffix profile", id)
		}
		for _, m := range members {
			h, _ := e.sched.names.Lookup(m)
			if got := e.sched.memberUnit[h]; got != id {
				t.Errorf("%s routes through %q, want %q", m, got, id)
			}
		}
	}
	seen := map[string]bool{}
	for _, g := range e.sched.Plan().GPUs {
		for _, a := range g.Allocs {
			if want[a.SessionID] == nil {
				t.Errorf("plan allocates %q, not a prefix group", a.SessionID)
			}
			seen[a.SessionID] = true
		}
	}
	if len(seen) != 2 {
		t.Fatalf("plan allocates %d prefix groups, want 2: %v", len(seen), seen)
	}
}

func TestPrefixGroupID(t *testing.T) {
	for _, c := range []struct {
		slo  time.Duration
		want string
	}{
		{47 * time.Millisecond, "pg/lenet5/47ms"},
		{1000 * time.Millisecond, "pg/lenet5/1000ms"},
		{77500 * time.Microsecond, "pg/lenet5/77.5ms"},
		{77*time.Millisecond + 1, "pg/lenet5/77.000001ms"},
	} {
		if got := prefixGroupID(model.LeNet5, c.slo); got != c.want {
			t.Errorf("prefixGroupID(%v) = %q, want %q", c.slo, got, c.want)
		}
	}
}

func TestQueryDeployment(t *testing.T) {
	e := newEnv(t, nexusConfig(), 16)
	q := &queryopt.Query{
		Name: "traffic", SLO: 400 * time.Millisecond,
		Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
			{Gamma: 1, Child: &queryopt.Node{Name: "car", ModelID: model.GoogLeNetCar}},
		}},
	}
	if err := e.sched.AddQuery(QuerySpec{Query: q, ExpectedRate: 50}); err != nil {
		t.Fatal(err)
	}
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	sessions := e.fe.Sessions()
	if len(sessions) != 2 {
		t.Fatalf("routable sessions = %v, want traffic/det and traffic/car", sessions)
	}
	// The DP should give the heavyweight SSD most of the 400ms budget.
	var detSLO, carSLO time.Duration
	specs, _, err := e.sched.buildSessions()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		switch s.ID {
		case "traffic/det":
			detSLO = s.SLO
		case "traffic/car":
			carSLO = s.SLO
		}
	}
	if detSLO <= carSLO {
		t.Fatalf("SSD budget %v <= GoogLeNet budget %v; QA should favour the slow stage", detSLO, carSLO)
	}
	if detSLO+carSLO > 400*time.Millisecond {
		t.Fatalf("split %v+%v exceeds query SLO", detSLO, carSLO)
	}
}

func TestObliviousModeRequiresGPUCount(t *testing.T) {
	cfg := nexusConfig()
	cfg.Squishy = false
	e := newEnv(t, cfg, 4)
	if _, err := e.sched.AddSession(SessionSpec{ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 10}); err != nil {
		t.Fatal(err)
	}
	if err := e.sched.RunEpoch(); err == nil {
		t.Fatal("oblivious mode without GPU count accepted")
	}
	cfg.ObliviousGPUs = 2
	e2 := newEnv(t, cfg, 4)
	if _, err := e2.sched.AddSession(SessionSpec{ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 10}); err != nil {
		t.Fatal(err)
	}
	if err := e2.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if e2.pool.InUse() == 0 {
		t.Fatal("no backends acquired in oblivious mode")
	}
}

func TestEpochAdaptsToObservedLoad(t *testing.T) {
	e := newEnv(t, nexusConfig(), 32)
	if _, err := e.sched.AddSession(SessionSpec{
		ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 50,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	initial := e.pool.InUse()
	// Offer much more traffic than expected, then re-run the epoch.
	e.clock.RunUntil(2 * time.Second)
	rng := rand.New(rand.NewSource(2))
	e.stamp(workload.Start(e.clock, rng, "s", 100*time.Millisecond, workload.Uniform{Rate: 3000},
		e.clock.Now()+10*time.Second, func(r workload.Request) { e.fe.Dispatch(r) }))
	e.clock.RunUntil(7 * time.Second)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	if e.pool.InUse() <= initial {
		t.Fatalf("scheduler did not scale up: %d -> %d GPUs", initial, e.pool.InUse())
	}
	// Let traffic stop; rates decay and the cluster shrinks.
	e.clock.Run()
	for i := 0; i < 12; i++ {
		e.clock.RunUntil(e.clock.Now() + 10*time.Second)
		if err := e.sched.RunEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if e.pool.InUse() > initial+1 {
		t.Fatalf("scheduler did not scale down: still %d GPUs", e.pool.InUse())
	}
}

func TestPoolExhaustionDegradesGracefully(t *testing.T) {
	// Demand far above pool capacity: planning-time admission control
	// provisions the largest fraction that fits instead of failing, and
	// the runtime drop policy sheds the rest (§5). The second epoch
	// re-plans incrementally against the committed plan, so the forced
	// re-iterations of the admission loop run too. The pool holds two GPUs
	// so a two-shard plan (one node per non-empty shard) can fit it.
	const pool = 2
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := nexusConfig()
			cfg.Shards = shards
			e := newEnv(t, cfg, pool)
			for i := 0; i < 4; i++ {
				if _, err := e.sched.AddSession(SessionSpec{
					ID:      fmt.Sprintf("s%d", i),
					ModelID: model.Darknet53,
					SLO:     200 * time.Millisecond, ExpectedRate: 500,
				}); err != nil {
					t.Fatal(err)
				}
			}
			for epoch := 1; epoch <= 2; epoch++ {
				if err := e.sched.RunEpoch(); err != nil {
					t.Fatalf("epoch %d failed instead of degrading: %v", epoch, err)
				}
				if got := e.sched.GPUsDemanded(); got <= pool {
					t.Fatalf("epoch %d: demanded %d GPUs, want the unscaled demand above the %d-GPU pool", epoch, got, pool)
				}
				if e.pool.InUse() != pool {
					t.Fatalf("epoch %d: in use = %d, want the whole %d-GPU pool", epoch, e.pool.InUse(), pool)
				}
				// The plan serves less than demanded (admission control at work).
				var planned float64
				for i := 0; i < 4; i++ {
					planned += e.sched.Plan().SessionRate(fmt.Sprintf("s%d", i))
				}
				if planned >= 2000 {
					t.Fatalf("epoch %d: planned %v r/s, expected scaled-down admission", epoch, planned)
				}
				if planned <= 0 {
					t.Fatalf("epoch %d: nothing planned at all", epoch)
				}
				e.clock.RunUntil(e.clock.Now() + 10*time.Second)
			}
		})
	}
}

// TestUnappliedPlanNotCommitted: an epoch whose plan the pool cannot host
// fails without becoming the planner's baseline, so the next epoch re-plans
// against what the cluster actually runs and adds the nodes it never got.
func TestUnappliedPlanNotCommitted(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := nexusConfig()
			cfg.Shards = shards
			e := newEnv(t, cfg, 32)
			addMixedSessions(t, e, 6)
			if err := e.sched.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			// A heavy new session needs dedicated GPUs the pool will not grant.
			if _, err := e.sched.AddSession(SessionSpec{
				ID: "late", ModelID: model.ResNet50, SLO: 200 * time.Millisecond, ExpectedRate: 2000,
			}); err != nil {
				t.Fatal(err)
			}
			e.pool.deny = true
			e.clock.RunUntil(e.clock.Now() + 10*time.Second)
			if err := e.sched.RunEpoch(); err == nil {
				t.Fatal("epoch applied a plan the pool refused to host")
			}
			e.pool.deny = false
			e.clock.RunUntil(e.clock.Now() + 10*time.Second)
			if err := e.sched.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			if added := e.sched.LastMoveStats().NodesAdded; added == 0 {
				t.Fatal("recovery epoch added no nodes: it re-planned against the unapplied plan")
			}
			if e.sched.Plan().SessionRate("late") <= 0 {
				t.Fatal("the new session is not planned")
			}
		})
	}
}

// TestTotalMovedCountsAppliedPlans: the moved-session total sums the moves
// of applied plans only, each measured by DiffPlans between consecutive
// committed plans. Demand outgrows the pool, so every epoch plans more
// than once before admission control fits it, and the last epoch's plan is
// refused by the pool: neither the discarded passes nor the refused plan
// may count, in the moves or in the shard counters.
func TestTotalMovedCountsAppliedPlans(t *testing.T) {
	const pool, epochs = 6, 5
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := nexusConfig()
			cfg.Shards = shards
			e := newEnv(t, cfg, pool)
			addMixedSessions(t, e, 6)
			for i := 0; i < 3; i++ {
				if _, err := e.sched.AddSession(SessionSpec{
					ID: fmt.Sprintf("heavy%d", i), ModelID: model.Darknet53,
					SLO: 200 * time.Millisecond, ExpectedRate: 600,
				}); err != nil {
					t.Fatal(err)
				}
			}
			sum := 0
			for epoch := 1; epoch <= epochs; epoch++ {
				if epoch == epochs {
					// A heavy new session needs GPUs the pool will not grant.
					if _, err := e.sched.AddSession(SessionSpec{
						ID: "late", ModelID: model.ResNet50, SLO: 200 * time.Millisecond, ExpectedRate: 2000,
					}); err != nil {
						t.Fatal(err)
					}
					e.pool.deny = true
				}
				prev := e.sched.Plan()
				replanned, _, _ := e.sched.ShardTotals()
				err := e.sched.RunEpoch()
				if e.pool.deny {
					if err == nil {
						t.Fatal("epoch applied a plan the pool refused to host")
					}
					if again, _, _ := e.sched.ShardTotals(); again != replanned {
						t.Fatalf("refused epoch counted %d replanned shards", again-replanned)
					}
				} else if err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				} else {
					if demanded := e.sched.GPUsDemanded(); demanded <= pool {
						t.Fatalf("epoch %d: demanded %d GPUs, want more than the %d-GPU pool", epoch, demanded, pool)
					}
					got := e.sched.LastMoveStats()
					if want := scheduler.DiffPlans(prev, e.sched.Plan()); got != want {
						t.Fatalf("epoch %d: LastMoveStats = %+v, DiffPlans of the committed plans = %+v", epoch, got, want)
					}
					sum += got.SessionsMoved
				}
				if total := e.sched.TotalMoved(); total != sum {
					t.Fatalf("epoch %d: TotalMoved = %d, applied plans moved %d", epoch, total, sum)
				}
				e.clock.RunUntil(e.clock.Now() + 10*time.Second)
			}
		})
	}
}
