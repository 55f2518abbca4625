package backend

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/session"
	"nexus/internal/simclock"
	"nexus/internal/workload"
)

func mkReq(id uint64, arrival, deadline time.Duration) Request {
	return Request{ID: id, Session: 1, Arrival: arrival, Deadline: deadline}
}

func TestQueuePushPop(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Push(mkReq(uint64(i), 0, time.Second))
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.PopN(2)
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 1 {
		t.Fatalf("PopN(2) = %v", got)
	}
	if q.Len() != 3 {
		t.Fatalf("Len after pop = %d", q.Len())
	}
	got = q.PopN(10)
	if len(got) != 3 || got[0].ID != 2 {
		t.Fatalf("PopN(10) = %v", got)
	}
}

func constEstimate(d time.Duration) func(int) time.Duration {
	return func(int) time.Duration { return d }
}

func linEstimate(alpha, beta time.Duration) func(int) time.Duration {
	return func(b int) time.Duration { return time.Duration(b)*alpha + beta }
}

func TestLazyDropExpired(t *testing.T) {
	var q Queue
	q.Push(mkReq(0, 0, 10*time.Millisecond)) // expired at now=20ms
	q.Push(mkReq(1, 0, 15*time.Millisecond)) // expired
	q.Push(mkReq(2, 0, 100*time.Millisecond))
	drop, take := LazyDrop{}.Pick(&q, 20*time.Millisecond, 8, constEstimate(10*time.Millisecond))
	if drop != 2 {
		t.Fatalf("dropped %d, want 2", drop)
	}
	if _, batch := consume(&q, drop, take); len(batch) != 1 || batch[0].ID != 2 {
		t.Fatalf("batch = %v", batch)
	}
}

func TestLazyDropBatchSizedByHeadBudget(t *testing.T) {
	var q Queue
	// Head has 25ms budget; estimate(b) = b*10ms: only b=2 fits.
	for i := 0; i < 8; i++ {
		q.Push(mkReq(uint64(i), 0, 25*time.Millisecond))
	}
	drop, take := LazyDrop{}.Pick(&q, 0, 8, linEstimate(10*time.Millisecond, 0))
	if drop != 0 {
		t.Fatalf("dropped %d", drop)
	}
	if take != 2 {
		t.Fatalf("batch size %d, want 2 (head budget limits)", take)
	}
}

func TestEarlyDropSkipsDoomedPrefix(t *testing.T) {
	var q Queue
	// First two requests cannot anchor a full window (estimate(4)=40ms),
	// the third can.
	q.Push(mkReq(0, 0, 20*time.Millisecond))
	q.Push(mkReq(1, 0, 30*time.Millisecond))
	for i := 2; i < 8; i++ {
		q.Push(mkReq(uint64(i), 0, 100*time.Millisecond))
	}
	drop, take := EarlyDrop{}.Pick(&q, 0, 4, linEstimate(10*time.Millisecond, 0))
	dropped, batch := consume(&q, drop, take)
	if len(dropped) != 2 || dropped[0].ID != 0 || dropped[1].ID != 1 {
		t.Fatalf("dropped = %v, want requests 0,1", dropped)
	}
	if len(batch) != 4 || batch[0].ID != 2 {
		t.Fatalf("batch = %v, want 4 starting at ID 2", batch)
	}
}

func TestEarlyDropWindowShrinksAtQueueTail(t *testing.T) {
	var q Queue
	q.Push(mkReq(0, 0, 25*time.Millisecond))
	q.Push(mkReq(1, 0, 25*time.Millisecond))
	// Window target 8 but only 2 queued: estimate(2)=20ms fits the 25ms
	// deadline, so no drops.
	drop, take := EarlyDrop{}.Pick(&q, 0, 8, linEstimate(10*time.Millisecond, 0))
	if drop != 0 || take != 2 {
		t.Fatalf("batch=%d dropped=%d, want 2/0", take, drop)
	}
}

func TestEarlyDropFallsBackToLazy(t *testing.T) {
	var q Queue
	q.Push(mkReq(0, 0, 5*time.Millisecond))
	// No window fits (estimate(1)=50ms) and the head is hopeless: the lazy
	// fallback drops it, making progress.
	drop, take := EarlyDrop{}.Pick(&q, 0, 4, constEstimate(50*time.Millisecond))
	if take != 0 || drop != 1 {
		t.Fatalf("batch=%d dropped=%d, want 0/1", take, drop)
	}
}

func TestLazyDropHopelessHeadDropped(t *testing.T) {
	var q Queue
	q.Push(mkReq(0, 0, 5*time.Millisecond))  // cannot finish within 50ms estimate
	q.Push(mkReq(1, 0, 80*time.Millisecond)) // can
	drop, take := LazyDrop{}.Pick(&q, 0, 8, constEstimate(50*time.Millisecond))
	dropped, batch := consume(&q, drop, take)
	if len(dropped) != 1 || dropped[0].ID != 0 {
		t.Fatalf("dropped = %v, want the hopeless head", dropped)
	}
	if len(batch) != 1 || batch[0].ID != 1 {
		t.Fatalf("batch = %v", batch)
	}
}

// Property: both policies preserve requests — every queued request is
// eventually either batched or dropped, none duplicated or lost.
func TestPropertyPoliciesConserveRequests(t *testing.T) {
	f := func(seed int64, early bool) bool {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		n := rng.Intn(30) + 1
		ids := make(map[uint64]int)
		for i := 0; i < n; i++ {
			r := mkReq(uint64(i), 0, time.Duration(rng.Intn(100))*time.Millisecond)
			q.Push(r)
			ids[r.ID] = 0
		}
		var policy DropPolicy = LazyDrop{}
		if early {
			policy = EarlyDrop{}
		}
		est := linEstimate(time.Duration(rng.Intn(5)+1)*time.Millisecond, 5*time.Millisecond)
		now := time.Duration(0)
		for iter := 0; q.Len() > 0 && iter < 1000; iter++ {
			drop, take := policy.Pick(&q, now, rng.Intn(8)+1, est)
			dropped, batch := consume(&q, drop, take)
			for _, r := range batch {
				ids[r.ID]++
			}
			for _, r := range dropped {
				ids[r.ID]++
			}
			if len(batch) == 0 && len(dropped) == 0 {
				return false // no progress
			}
			now += 10 * time.Millisecond
		}
		for _, count := range ids {
			if count != 1 {
				return false
			}
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// --- backend integration -------------------------------------------------

type harness struct {
	clock   *simclock.Clock
	dev     *gpusim.Device
	backend *Backend
	good    int
	missed  int
	dropped int
}

func newHarness(t *testing.T, cfg Config, mode gpusim.Mode) *harness {
	t.Helper()
	h := &harness{clock: simclock.New()}
	h.dev = gpusim.New(h.clock, "gpu0", profiler.GTX1080Ti, mode)
	h.backend = New("b0", h.clock, h.dev, cfg, func(req Request, outcome Outcome, at time.Duration) {
		switch {
		case outcome.Bad():
			h.dropped++
		case at > req.Deadline:
			h.missed++
		default:
			h.good++
		}
	})
	return h
}

func testUnitProfile() *profiler.Profile {
	return &profiler.Profile{
		ModelID: "m", GPU: profiler.GTX1080Ti,
		Alpha: 500 * time.Microsecond, Beta: 5 * time.Millisecond,
		MaxBatch: 64, PreprocCPU: 2 * time.Millisecond, PostprocCPU: 500 * time.Microsecond,
		MemBase: 1 << 30, MemPerItem: 4 << 20,
	}
}

func (h *harness) run(rate float64, slo, horizon time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	workload.Start(h.clock, rng, "s", slo, workload.Uniform{Rate: rate}, horizon, func(r workload.Request) {
		if err := h.backend.Enqueue("u", r); err != nil {
			panic(err)
		}
	})
	h.clock.Run()
}

func TestBackendServesSteadyLoad(t *testing.T) {
	h := newHarness(t, Config{Overlap: true, Discipline: RoundRobin}, gpusim.Exclusive)
	if err := h.backend.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 16}}); err != nil {
		t.Fatal(err)
	}
	// Let the model load finish before offering traffic; cold-start drops
	// are tested separately in TestModelLoadDelaysServing.
	h.clock.RunUntil(2 * time.Second)
	h.run(200, 100*time.Millisecond, 12*time.Second, 1)
	total := h.good + h.missed + h.dropped
	if total < 1900 {
		t.Fatalf("only %d requests completed", total)
	}
	badRate := float64(h.missed+h.dropped) / float64(total)
	if badRate > 0.01 {
		t.Fatalf("bad rate %.3f at comfortable load, want <= 1%%", badRate)
	}
	if h.backend.AvgBatchSize() < 1 {
		t.Fatal("no batches recorded")
	}
}

func TestBackendOverloadDropsButKeepsServing(t *testing.T) {
	h := newHarness(t, Config{Overlap: true, Discipline: RoundRobin}, gpusim.Exclusive)
	if err := h.backend.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 8}}); err != nil {
		t.Fatal(err)
	}
	// Capacity with batch 8 is ~8/9ms ≈ 890 r/s; offer 3000.
	h.run(3000, 50*time.Millisecond, 5*time.Second, 2)
	if h.dropped == 0 {
		t.Fatal("overload produced no drops")
	}
	if h.good == 0 {
		t.Fatal("overload starved all requests")
	}
	// Early drop should keep served requests within deadline.
	if float64(h.missed) > 0.05*float64(h.good) {
		t.Fatalf("missed %d vs good %d: early drop should prevent late completions", h.missed, h.good)
	}
}

func TestOverlapBeatsSerialOnTightSLO(t *testing.T) {
	// Figure 10's headline: with tight SLOs and small models, overlapping
	// CPU and GPU work is critical.
	measure := func(overlap bool) int {
		h := newHarness(t, Config{Overlap: overlap, Discipline: RoundRobin}, gpusim.Exclusive)
		p := testUnitProfile()
		p.PreprocCPU = 10 * time.Millisecond // game-analysis-like preprocessing
		if err := h.backend.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: 8}}); err != nil {
			panic(err)
		}
		h.run(800, 50*time.Millisecond, 5*time.Second, 3)
		return h.good
	}
	withOL := measure(true)
	withoutOL := measure(false)
	if float64(withOL) < 1.5*float64(withoutOL) {
		t.Fatalf("overlap good=%d vs serial good=%d; expected >=1.5x gain", withOL, withoutOL)
	}
}

func TestRoundRobinBeatsParallelInterference(t *testing.T) {
	// Figure 14's headline: coordinated round-robin on an exclusive device
	// outperforms uncoordinated parallel issue on a shared device.
	measure := func(disc Discipline, mode gpusim.Mode) int {
		cfg := Config{Overlap: true, Discipline: disc}
		h := newHarness(t, cfg, mode)
		var units []Unit
		for i := 0; i < 3; i++ {
			units = append(units, Unit{ID: fmt.Sprintf("u%d", i), Profile: testUnitProfile(), TargetBatch: 16})
		}
		if err := h.backend.Configure(units); err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(4))
		for i := 0; i < 3; i++ {
			uid := fmt.Sprintf("u%d", i)
			workload.Start(h.clock, rng, uid, 100*time.Millisecond, workload.Uniform{Rate: 400}, 5*time.Second,
				func(r workload.Request) { _ = h.backend.Enqueue(uid, r) })
		}
		h.clock.Run()
		return h.good
	}
	rr := measure(RoundRobin, gpusim.Exclusive)
	par := measure(Parallel, gpusim.Shared)
	if rr <= par {
		t.Fatalf("round-robin good=%d vs parallel good=%d; expected round-robin to win", rr, par)
	}
}

func TestEarlyDropBeatsLazyUnderPoisson(t *testing.T) {
	// Figure 9's shape: under bursty arrivals near capacity, early drop
	// sustains more goodput than lazy drop.
	measure := func(policy DropPolicy, seed int64) int {
		h := newHarness(t, Config{Policy: policy, Overlap: true, Discipline: RoundRobin}, gpusim.Exclusive)
		p := testUnitProfile()
		p.Alpha = 100 * time.Microsecond
		p.Beta = 15 * time.Millisecond // high fixed cost: small batches hurt
		p.PreprocCPU = 0
		p.PostprocCPU = 0
		if err := h.backend.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: 40}}); err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(seed))
		workload.Start(h.clock, rng, "s", 100*time.Millisecond, workload.Poisson{Rate: 1900}, 5*time.Second,
			func(r workload.Request) { _ = h.backend.Enqueue("u", r) })
		h.clock.Run()
		return h.good
	}
	var early, lazy int
	for seed := int64(0); seed < 3; seed++ {
		early += measure(EarlyDrop{}, seed)
		lazy += measure(LazyDrop{}, seed)
	}
	if early <= lazy {
		t.Fatalf("early good=%d vs lazy good=%d; expected early to win", early, lazy)
	}
}

func TestConfigureValidation(t *testing.T) {
	h := newHarness(t, Config{}, gpusim.Exclusive)
	if err := h.backend.Configure([]Unit{{ID: "u", TargetBatch: 4}}); err == nil {
		t.Error("nil profile accepted")
	}
	if err := h.backend.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 0}}); err == nil {
		t.Error("zero batch accepted")
	}
	big := testUnitProfile()
	big.MemBase = 100 << 30
	if err := h.backend.Configure([]Unit{{ID: "u", Profile: big, TargetBatch: 1}}); err == nil {
		t.Error("over-memory unit accepted")
	}
}

func TestConfigureRemovalDropsQueued(t *testing.T) {
	h := newHarness(t, Config{Discipline: RoundRobin}, gpusim.Exclusive)
	if err := h.backend.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 4}}); err != nil {
		t.Fatal(err)
	}
	// Enqueue before the model finishes loading, then remove the unit.
	_ = h.backend.Enqueue("u", mkReq(0, 0, time.Hour))
	if err := h.backend.Configure(nil); err != nil {
		t.Fatal(err)
	}
	h.clock.Run()
	if h.dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (queued request of removed unit)", h.dropped)
	}
	if h.dev.MemUsed() != 0 {
		t.Fatal("removed unit did not free memory")
	}
}

func TestConfigureKeepsExistingUnits(t *testing.T) {
	h := newHarness(t, Config{Discipline: RoundRobin}, gpusim.Exclusive)
	p := testUnitProfile()
	if err := h.backend.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: 4}}); err != nil {
		t.Fatal(err)
	}
	h.clock.Run() // finish loading
	used := h.dev.MemUsed()
	// Reconfigure with a new batch target: no reload, memory unchanged.
	if err := h.backend.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: 8}}); err != nil {
		t.Fatal(err)
	}
	if h.dev.MemUsed() != used {
		t.Fatal("reconfigure of existing unit reloaded the model")
	}
}

func TestEnqueueUnknownUnit(t *testing.T) {
	h := newHarness(t, Config{}, gpusim.Exclusive)
	if err := h.backend.Enqueue("ghost", mkReq(0, 0, time.Second)); err == nil {
		t.Fatal("unknown unit accepted")
	}
}

func TestModelLoadDelaysServing(t *testing.T) {
	h := newHarness(t, Config{Discipline: RoundRobin, Overlap: true}, gpusim.Exclusive)
	p := testUnitProfile()
	if err := h.backend.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: 4}}); err != nil {
		t.Fatal(err)
	}
	var completedAt time.Duration
	h.backend.onDone = func(req Request, outcome Outcome, at time.Duration) {
		completedAt = at
	}
	_ = h.backend.Enqueue("u", mkReq(0, 0, time.Hour))
	h.clock.Run()
	loadTime := gpusim.LoadTime(p.MemBase + 4*p.MemPerItem)
	if completedAt < loadTime {
		t.Fatalf("request completed at %v, before model load finished (%v)", completedAt, loadTime)
	}
}

func TestDeferDroppedServesLate(t *testing.T) {
	// Overload a unit briefly; with DeferDropped, would-be drops complete
	// late instead of disappearing.
	run := func(deferOn bool) (good, missed, dropped int) {
		clock := simclock.New()
		dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
		be := New("b", clock, dev, Config{Overlap: true, DeferDropped: deferOn},
			func(r Request, outcome Outcome, at time.Duration) {
				switch {
				case outcome.Bad():
					dropped++
				case at > r.Deadline:
					missed++
				default:
					good++
				}
			})
		p := testUnitProfile()
		if err := be.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: 8}}); err != nil {
			t.Fatal(err)
		}
		clock.RunUntil(2 * time.Second)
		// A burst far beyond what the 20ms SLO allows.
		now := clock.Now()
		for i := 0; i < 200; i++ {
			_ = be.Enqueue("u", Request{ID: uint64(i), Session: 1, Arrival: now, Deadline: now + 20*time.Millisecond})
		}
		clock.Run()
		return good, missed, dropped
	}
	g1, m1, d1 := run(false)
	g2, m2, d2 := run(true)
	if d1 == 0 {
		t.Fatalf("setup: burst should overflow without defer (good=%d missed=%d dropped=%d)", g1, m1, d1)
	}
	if d2 != 0 {
		t.Fatalf("defer mode still dropped %d", d2)
	}
	if g2+m2 != 200 {
		t.Fatalf("defer mode completed %d of 200", g2+m2)
	}
	if m2 == 0 {
		t.Fatal("deferred requests should complete late (missed)")
	}
}

func TestDeferredQueueBounded(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	dropped := 0
	be := New("b", clock, dev, Config{Overlap: true, DeferDropped: true},
		func(r Request, outcome Outcome, at time.Duration) {
			if outcome.Bad() {
				dropped++
			}
		})
	if err := be.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 8}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(2 * time.Second)
	now := clock.Now()
	// Far beyond the deferred bound: overflow must be really dropped.
	for i := 0; i < 3*maxDeferred; i++ {
		_ = be.Enqueue("u", Request{ID: uint64(i), Session: 1, Arrival: now, Deadline: now + time.Millisecond})
	}
	clock.Run()
	if dropped == 0 {
		t.Fatal("deferred queue bound not enforced")
	}
}

// TestDeferredFillsBeforeDropping pins deferred mode over in-place drops:
// a backlog that is hopeless by the time the model loads fills the
// deferred queue up to maxDeferred in arrival order, and only the rest
// completes as DropDeadline.
func TestDeferredFillsBeforeDropping(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	late, deadline := 0, 0
	be := New("b", clock, dev, Config{Overlap: true, DeferDropped: true},
		func(r Request, outcome Outcome, at time.Duration) {
			switch outcome {
			case OK:
				late++
			case DropDeadline:
				if r.ID < maxDeferred {
					t.Fatalf("request %d dropped while the deferred queue had room", r.ID)
				}
				deadline++
			default:
				t.Fatalf("request %d completed as %v", r.ID, outcome)
			}
		})
	if err := be.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 8}}); err != nil {
		t.Fatal(err)
	}
	const extra = 1000
	for i := 0; i < maxDeferred+extra; i++ {
		_ = be.Enqueue("u", Request{ID: uint64(i), Session: 1, Deadline: time.Millisecond})
	}
	clock.Run()
	if late != maxDeferred || deadline != extra {
		t.Fatalf("served late %d, dropped %d; want %d and %d", late, deadline, maxDeferred, extra)
	}
}

func TestConfigureRemovalDrainsDeferred(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	dropped := 0
	be := New("b", clock, dev, Config{Overlap: true, DeferDropped: true},
		func(r Request, outcome Outcome, at time.Duration) {
			if outcome.Bad() {
				dropped++
			}
		})
	if err := be.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 8}}); err != nil {
		t.Fatal(err)
	}
	// Not yet loaded: requests queue; hopeless deadlines will defer at pick
	// time once loading completes — but remove the unit first.
	_ = be.Enqueue("u", Request{ID: 1, Session: 1, Deadline: time.Millisecond})
	if err := be.Configure(nil); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	if dropped != 1 {
		t.Fatalf("removal dropped %d, want 1", dropped)
	}
}

func TestPrefixGroupPerMemberSuffixTiming(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	var done int
	be := New("b", clock, dev, Config{Overlap: true}, func(Request, Outcome, time.Duration) { done++ })
	base := testUnitProfile()
	base.PreprocCPU, base.PostprocCPU = 0, 0
	pre, suf := base.Split(0.9)
	comb, err := profiler.CombinedProfile(base, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	comb.PreprocCPU, comb.PostprocCPU = 0, 0
	if err := be.Configure([]Unit{{
		ID: "g", Profile: comb, TargetBatch: 8,
		Members: []string{"m0", "m1", "m2", "m3"},
		Prefix:  &pre, Suffix: &suf,
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(2 * time.Second)
	start := clock.Now()
	// Requests from only TWO distinct members (m0, m1). The first enqueue
	// executes alone (work-conserving); the remaining three form one batch
	// while the GPU is busy. Execution must charge the prefix at the batch
	// size plus one suffix per member PRESENT — not the planning profile's
	// min(k, b)-member assumption.
	for i := 0; i < 4; i++ {
		sess := session.Handle(1) // m0
		if i%2 == 1 {
			sess = 2 // m1
		}
		_ = be.Enqueue("g", Request{ID: uint64(i), Session: sess, Arrival: start, Deadline: start + time.Second})
	}
	clock.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	elapsed := clock.Now() - start
	// Batch 1: [m0]. Batch 2: [m1, m0, m1] -> prefix(3) + suf(2) + suf(1).
	want := pre.BatchLatency(1) + suf.BatchLatency(1) +
		pre.BatchLatency(3) + suf.BatchLatency(2) + suf.BatchLatency(1)
	if elapsed != want {
		t.Fatalf("batches took %v, want %v (per-member suffixes)", elapsed, want)
	}
	// Against the combined planning profile, which would assume min(k,b)
	// members in the second batch (3 suffixes instead of 2).
	planned := comb.BatchLatency(1) + comb.BatchLatency(3)
	if elapsed >= planned {
		t.Fatalf("per-member accounting (%v) should beat the combined estimate (%v)", elapsed, planned)
	}
}
