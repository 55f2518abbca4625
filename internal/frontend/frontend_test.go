package frontend

import (
	"math"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
	"nexus/internal/workload"
)

func testProfile() *profiler.Profile {
	return &profiler.Profile{
		ModelID: "m", GPU: profiler.GTX1080Ti,
		Alpha: time.Millisecond, Beta: 5 * time.Millisecond, MaxBatch: 32,
		MemBase: 1 << 28, MemPerItem: 1 << 20,
	}
}

func setup(t *testing.T, nBackends int) (*simclock.Clock, map[string]*backend.Backend, *Frontend, *int) {
	t.Helper()
	clock := simclock.New()
	backends := make(map[string]*backend.Backend)
	for i := 0; i < nBackends; i++ {
		id := string(rune('a' + i))
		dev := gpusim.New(clock, "gpu-"+id, profiler.GTX1080Ti, gpusim.Exclusive)
		be := backend.New(id, clock, dev, backend.Config{Overlap: true}, nil)
		if err := be.Configure([]backend.Unit{{ID: "u", Profile: testProfile(), TargetBatch: 8}}); err != nil {
			t.Fatal(err)
		}
		backends[id] = be
	}
	dropped := 0
	fe := New(clock, backends, nil, 0, func(req workload.Request, reason backend.Outcome) { dropped++ })
	return clock, backends, fe, &dropped
}

func TestRoutingTableValidate(t *testing.T) {
	bad := []byID{
		{"s": {}},
		{"s": {{BackendID: "a", UnitID: "u", Weight: 0}}},
		{"s": {{BackendID: "", UnitID: "u", Weight: 1}}},
		{"s": {{BackendID: "a", UnitID: "", Weight: 1}}},
	}
	_, _, fe, _ := setup(t, 1)
	for i, rt := range bad {
		if fe.SetTable(rt) == nil {
			t.Errorf("case %d: invalid table accepted", i)
		}
	}
	good := byID{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}
	if err := fe.SetTable(good); err != nil {
		t.Fatal(err)
	}
}

func TestSetTableUnknownBackend(t *testing.T) {
	_, _, fe, _ := setup(t, 1)
	rt := byID{"s": {{BackendID: "zz", UnitID: "u", Weight: 1}}}
	if err := fe.SetTable(rt); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

func TestDispatchUnroutable(t *testing.T) {
	clock, _, fe, unroutable := setup(t, 1)
	fe.Dispatch(workload.Request{Session: fe.sid("ghost"), Deadline: time.Second})
	clock.Run()
	if *unroutable != 1 {
		t.Fatalf("unroutable = %d, want 1", *unroutable)
	}
}

func TestDispatchReachesBackend(t *testing.T) {
	clock, backends, fe, _ := setup(t, 1)
	if err := fe.SetTable(byID{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second) // let the model load
	fe.Dispatch(workload.Request{Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	if backends["a"].AvgBatchSize() == 0 {
		t.Fatal("request never executed on backend")
	}
}

func TestWeightedSpread(t *testing.T) {
	clock, backends, fe, _ := setup(t, 2)
	if err := fe.SetTable(byID{"s": {
		{BackendID: "a", UnitID: "u", Weight: 3},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	for i := 0; i < 400; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.Run()
	// The weight-3 backend should do roughly 3x the GPU work.
	busyA := backends["a"].Device().BusyTime()
	busyB := backends["b"].Device().BusyTime()
	if busyA <= busyB {
		t.Fatalf("weight-3 backend busy %v <= weight-1 backend busy %v", busyA, busyB)
	}
}

func TestSmoothWRRExactProportions(t *testing.T) {
	_, _, fe, _ := setup(t, 2)
	if err := fe.SetTable(byID{"s": {
		{BackendID: "a", UnitID: "u", Weight: 3},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 400; i++ {
		r := fe.next(fe.state("s"))
		counts[r.BackendID]++
	}
	if counts["a"] != 300 || counts["b"] != 100 {
		t.Fatalf("WRR counts = %v, want a:300 b:100", counts)
	}
}

func TestObservedRates(t *testing.T) {
	clock, _, fe, _ := setup(t, 1)
	if err := fe.SetTable(byID{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.observedByID() // reset window
	for i := 0; i < 50; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.RunUntil(clock.Now() + 5*time.Second)
	rates := fe.observedByID()
	if math.Abs(rates["s"]-10) > 0.5 {
		t.Fatalf("observed rate %v, want ~10 r/s", rates["s"])
	}
	// Window reset: immediately asking again gives empty.
	clock.RunUntil(clock.Now() + time.Second)
	rates = fe.observedByID()
	if rates["s"] != 0 {
		t.Fatalf("rate after reset = %v, want 0", rates["s"])
	}
}

// TestAddObservedRatesMerges checks that AddObservedRates adds into the
// caller's buffer: entries for sessions without traffic keep their value,
// and the buffer grows only to the highest handle with traffic.
func TestAddObservedRatesMerges(t *testing.T) {
	clock, _, fe, _ := setup(t, 1)
	if err := fe.SetTable(byID{
		"x": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"y": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	x, y := fe.sid("x"), fe.sid("y")
	clock.RunUntil(time.Second)
	fe.AddObservedRates(nil) // reset window
	for i := range 10 {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: x, Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.RunUntil(clock.Now() + 2*time.Second)
	buf := make([]float64, int(x)+1, 64)
	buf[x] = 1
	got := fe.AddObservedRates(buf)
	if len(got) != int(x)+1 || &got[0] != &buf[0] {
		t.Fatalf("merged into len %d (reused %v), want the caller's buffer at len %d", len(got), &got[0] == &buf[0], int(x)+1)
	}
	if got[x] != 1+5 {
		t.Fatalf("rate of x = %v, want 1 already in the buffer + 5 r/s", got[x])
	}
	if int(y) < len(got) && got[y] != 0 {
		t.Fatalf("rate of y = %v, want 0 (no traffic)", got[y])
	}
}

func TestSessions(t *testing.T) {
	_, _, fe, _ := setup(t, 1)
	if err := fe.SetTable(byID{
		"s2": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"s1": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	got := fe.Sessions()
	if len(got) != 2 || got[0] != "s1" || got[1] != "s2" {
		t.Fatalf("Sessions = %v", got)
	}
}
