package frontend

import (
	"fmt"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

func TestDispatchAfterTableSwap(t *testing.T) {
	clock, backends, fe, unroutable := setup(t, 2)
	if err := fe.SetTable(byID{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.Dispatch(workload.Request{ID: 1, Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	// Swap the table to backend b; subsequent requests go there.
	if err := fe.SetTable(byID{"s": {{BackendID: "b", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	fe.Dispatch(workload.Request{ID: 2, Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	if backends["a"].Device().BusyTime() == 0 || backends["b"].Device().BusyTime() == 0 {
		t.Fatal("both backends should have served one request across the swap")
	}
	if *unroutable != 0 {
		t.Fatalf("unroutable = %d", *unroutable)
	}
}

func TestDispatchToRemovedUnitCountsReconfigDrop(t *testing.T) {
	clock, backends, fe, dropped := setup(t, 1)
	if err := fe.SetTable(byID{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	// Remove the unit between routing and enqueue: the in-flight dispatch
	// must surface as a reconfiguration drop rather than vanish. (With no
	// surviving replica, even the retry path has nowhere to send it.)
	if err := backends["a"].Configure(nil); err != nil {
		t.Fatal(err)
	}
	fe.Dispatch(workload.Request{ID: 1, Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	if *dropped != 1 {
		t.Fatalf("dropped = %d, want 1", *dropped)
	}
}

func TestObservedRatesMultipleSessions(t *testing.T) {
	clock, _, fe, _ := setup(t, 1)
	if err := fe.SetTable(byID{
		"x": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"y": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.observedByID()
	for i := 0; i < 20; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: fe.sid("x"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	for i := 0; i < 10; i++ {
		fe.Dispatch(workload.Request{ID: uint64(100 + i), Session: fe.sid("y"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.RunUntil(clock.Now() + 2*time.Second)
	rates := fe.observedByID()
	if rates["x"] != 10 || rates["y"] != 5 {
		t.Fatalf("rates = %v, want x:10 y:5", rates)
	}
}

func TestNegativeNetDelayUsesDefault(t *testing.T) {
	_, _, _, _ = setup(t, 1) // ensure helpers compile
	fe := New(nil, nil, nil, -1, nil)
	if fe.NetDelay() != DefaultNetDelay {
		t.Fatalf("NetDelay = %v, want default", fe.NetDelay())
	}
}

// zeroAllocRig is the two-backend deployment the zero-allocation tests
// dispatch on, models loaded. A fast profile keeps every scheduled horizon
// (preprocess, batch execution, postprocess) inside the timer wheel's
// level-0 span, so the wheel reaches its steady capacity during warmup
// instead of touching fresh far-horizon buckets every step.
func zeroAllocRig(t *testing.T) (*simclock.Clock, *Frontend) {
	t.Helper()
	prof := &profiler.Profile{
		ModelID: "m", GPU: profiler.GTX1080Ti,
		Alpha: 50 * time.Microsecond, Beta: 100 * time.Microsecond, MaxBatch: 8,
		PreprocCPU: 20 * time.Microsecond, PostprocCPU: 10 * time.Microsecond,
		MemBase: 1 << 28, MemPerItem: 1 << 20,
	}
	if err := prof.Validate(); err != nil {
		t.Fatal(err)
	}
	clock := simclock.New()
	backends := make(map[string]*backend.Backend)
	for _, id := range []string{"a", "b"} {
		dev := gpusim.New(clock, "gpu-"+id, profiler.GTX1080Ti, gpusim.Exclusive)
		be := backend.New(id, clock, dev, backend.Config{Overlap: true}, nil)
		if err := be.Configure([]backend.Unit{{ID: "u", Profile: prof, TargetBatch: 8}}); err != nil {
			t.Fatal(err)
		}
		backends[id] = be
	}
	fe := New(clock, backends, nil, 0, nil)
	clock.RunUntil(5 * time.Second)
	return clock, fe
}

// zeroAllocStep returns a step that dispatches the next 16 requests of a
// round-robin over the sessions at one instant, then runs the clock until
// they complete.
func zeroAllocStep(clock *simclock.Clock, fe *Frontend, sids ...string) func() {
	var id uint64
	return func() {
		now := clock.Now()
		for i := 0; i < 16; i++ {
			fe.Dispatch(workload.Request{ID: id, Session: fe.sid(sids[id%uint64(len(sids))]), Arrival: now, Deadline: now + time.Second})
			id++
		}
		clock.Run()
	}
}

// TestZeroAllocSteadyState asserts the end-to-end per-request path —
// admission, snapshot routing, WRR pick, network-delay send,
// enqueue, batch assembly, execution, completion — allocates nothing once
// the arenas and free lists are warm.
func TestZeroAllocSteadyState(t *testing.T) {
	clock, fe := zeroAllocRig(t)
	if err := fe.SetTable(byID{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 2},
	}}); err != nil {
		t.Fatal(err)
	}
	step := zeroAllocStep(clock, fe, "s")
	// Warm every pool: event free list, wheel buckets, send arena, queue
	// rings, batch and run arenas.
	for i := 0; i < 50; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("steady-state dispatch allocates %.1f times per 16-request step, want 0", avg)
	}

	// With the flight recorder's span source attached the same path must
	// stay allocation-free: Route and Enqueue events land in the tracer's
	// preallocated ring, so always-on capture never costs the hot path an
	// allocation.
	fe.SetTracer(trace.New(1<<14, nil))
	for i := 0; i < 50; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("traced steady-state dispatch allocates %.1f times per 16-request step, want 0", avg)
	}
}

// TestZeroAllocSharedSequence is TestZeroAllocSteadyState for sessions on a
// shared pick sequence: 1024 sessions installed with one two-route list
// (enough to share one, see sharesPay) take turns, so one extends the
// sequence and the rest read it, and neither allocates (the picks buffer
// and the checkpoints were sized at install).
func TestZeroAllocSharedSequence(t *testing.T) {
	clock, fe := zeroAllocRig(t)
	split := []Route{
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 2},
	}
	rt := byID{}
	var sids []string
	for i := range 1024 {
		sid := fmt.Sprintf("s%d", i)
		rt[sid], sids = split, append(sids, sid)
	}
	if err := fe.SetTable(rt); err != nil {
		t.Fatal(err)
	}
	step := zeroAllocStep(clock, fe, sids...)
	for i := 0; i < 50; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("steady-state dispatch on a shared sequence allocates %.1f times per 16-request step, want 0", avg)
	}
	seq := fe.state(sids[0]).seq
	for _, sid := range sids {
		if st := fe.state(sid); st.seq != seq || seq.picks == nil || st.at == 0 || len(seq.picks) == cap(seq.picks) {
			t.Fatalf("%s left the shared sequence or never read it (pick %d of %d, horizon %d)", sid, st.at, len(seq.picks), cap(seq.picks))
		}
	}
}
