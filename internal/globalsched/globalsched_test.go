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

func newEnv(t *testing.T, cfg Config, poolSize int) *env {
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
	e.fe = frontend.New(e.clock, poolBackends(e.pool), 0,
		func(req workload.Request, reason backend.Outcome) { e.dropped++ })
	e.sched = New(e.clock, e.pool, []*frontend.Frontend{e.fe}, e.mdb, profiles, cfg)
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
	if err := e.sched.AddSession(SessionSpec{ID: "", ModelID: model.ResNet50, SLO: time.Second}); err == nil {
		t.Error("empty ID accepted")
	}
	if err := e.sched.AddSession(SessionSpec{ID: "s", ModelID: "ghost", SLO: time.Second}); err == nil {
		t.Error("unknown model accepted")
	}
	if err := e.sched.AddSession(SessionSpec{ID: "s", ModelID: model.ResNet50, SLO: 0}); err == nil {
		t.Error("zero SLO accepted")
	}
}

func TestEpochDeploysSession(t *testing.T) {
	e := newEnv(t, nexusConfig(), 4)
	if err := e.sched.AddSession(SessionSpec{
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
	workload.Start(e.clock, rng, "s", 100*time.Millisecond, workload.Uniform{Rate: 100},
		e.clock.Now()+10*time.Second, func(r workload.Request) { e.fe.Dispatch(r) })
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
			if err := e.sched.AddSession(SessionSpec{
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
	if err := e.sched.AddSession(SessionSpec{ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 10}); err != nil {
		t.Fatal(err)
	}
	if err := e.sched.RunEpoch(); err == nil {
		t.Fatal("oblivious mode without GPU count accepted")
	}
	cfg.ObliviousGPUs = 2
	e2 := newEnv(t, cfg, 4)
	if err := e2.sched.AddSession(SessionSpec{ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 10}); err != nil {
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
	if err := e.sched.AddSession(SessionSpec{
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
	workload.Start(e.clock, rng, "s", 100*time.Millisecond, workload.Uniform{Rate: 3000},
		e.clock.Now()+10*time.Second, func(r workload.Request) { e.fe.Dispatch(r) })
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
				if err := e.sched.AddSession(SessionSpec{
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
			if err := e.sched.AddSession(SessionSpec{
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
