package frontend

import (
	"errors"
	"sync"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/simclock"
	"nexus/internal/workload"
)

// dropSetup is setup plus a per-reason drop tally.
func dropSetup(t *testing.T, nBackends int) (clock *simclock.Clock, backends map[string]*backend.Backend, fe *Frontend, drops map[backend.Outcome]int) {
	t.Helper()
	c, bes, _, _ := setup(t, nBackends)
	drops = make(map[backend.Outcome]int)
	fe = New(c, bes, 0, func(req workload.Request, reason backend.Outcome) { drops[reason]++ })
	return c, bes, fe, drops
}

func TestRouteLeaseExpiryDropsWithoutServeStale(t *testing.T) {
	clock, _, fe, drops := dropSetup(t, 1)
	fe.EnableRouteLease(5*time.Second, false)
	if err := fe.SetTable(RoutingTable{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.Dispatch(workload.Request{Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.RunUntil(10 * time.Second) // lease (refreshed at the push) expires
	if fe.RouteStaleness() < 9*time.Second || !fe.LeaseExpired() {
		t.Fatalf("staleness = %v, expired = %v", fe.RouteStaleness(), fe.LeaseExpired())
	}
	fe.Dispatch(workload.Request{Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	if drops[backend.DropUnroutable] != 1 {
		t.Fatalf("unroutable drops = %d, want 1 (only the post-expiry dispatch)", drops[backend.DropUnroutable])
	}
	if fe.StaleServed() != 0 {
		t.Fatalf("staleServed = %d with serve-stale off", fe.StaleServed())
	}
}

func TestRouteLeaseServeStaleCountsAndRenews(t *testing.T) {
	clock, _, fe, drops := dropSetup(t, 1)
	fe.EnableRouteLease(5*time.Second, true)
	if err := fe.SetTable(RoutingTable{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(10 * time.Second)
	fe.Dispatch(workload.Request{Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	if fe.StaleServed() != 1 {
		t.Fatalf("staleServed = %d, want 1", fe.StaleServed())
	}
	fe.RenewRouteLease()
	if fe.LeaseExpired() || fe.RouteStaleness() != 0 {
		t.Fatalf("lease not renewed: staleness = %v", fe.RouteStaleness())
	}
	fe.Dispatch(workload.Request{Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	if fe.StaleServed() != 1 {
		t.Fatalf("staleServed = %d after renewal, want still 1", fe.StaleServed())
	}
	if drops[backend.DropUnroutable] != 0 {
		t.Fatalf("unroutable drops = %d with serve-stale on", drops[backend.DropUnroutable])
	}
}

func TestBreakerOpensAndRoutesAround(t *testing.T) {
	clock, backends, fe, drops := dropSetup(t, 2)
	fe.EnableBreakers(2, time.Hour)
	fe.EnableRetry(2, time.Millisecond)
	var transitions []string
	fe.SetBreakerObserver(func(at time.Duration, beID, from, to string) {
		transitions = append(transitions, beID+":"+from+"->"+to)
	})
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	for i := 0; i < 10; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
		clock.RunUntil(clock.Now() + 100*time.Millisecond)
	}
	clock.Run()
	if drops[backend.DropFailure] != 0 {
		t.Fatalf("failure drops = %d, want retries + breaker to save every request", drops[backend.DropFailure])
	}
	if fe.OpenBreakers() != 1 {
		t.Fatalf("open breakers = %d, want 1 (backend a)", fe.OpenBreakers())
	}
	if len(transitions) != 1 || transitions[0] != "a:closed->open" {
		t.Fatalf("transitions = %v, want exactly one open on a", transitions)
	}
	// With a's breaker open, new dispatches never touch it: exactly as many
	// retries as it took to open the breaker (threshold = 2).
	if fe.Retries() != 2 {
		t.Fatalf("retries = %d, want 2 (one per pre-open failure)", fe.Retries())
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	clock, backends, fe, _ := dropSetup(t, 2)
	fe.EnableBreakers(1, 5*time.Second)
	fe.EnableRetry(2, time.Millisecond)
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	fe.Dispatch(workload.Request{Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.RunUntil(2 * time.Second)
	if fe.OpenBreakers() != 1 {
		t.Fatalf("open breakers = %d, want 1", fe.OpenBreakers())
	}
	backends["a"].Restart()
	// A restarted node comes back empty; give it its unit back, as the
	// control plane's repair would.
	if err := backends["a"].Configure([]backend.Unit{{ID: "u", Profile: testProfile(), TargetBatch: 8}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(10 * time.Second) // past cooloff: next pick may probe
	for i := 0; i < 4; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i + 1), Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
		clock.RunUntil(clock.Now() + 100*time.Millisecond)
	}
	clock.Run()
	if fe.OpenBreakers() != 0 {
		t.Fatalf("open breakers = %d after successful probe, want 0", fe.OpenBreakers())
	}
	// closed->open, open->half-open, half-open->closed.
	if fe.BreakerTransitions() != 3 {
		t.Fatalf("transitions = %d, want 3", fe.BreakerTransitions())
	}
}

func TestBackoffRetryBudgetExhausts(t *testing.T) {
	clock, backends, fe, drops := dropSetup(t, 2)
	fe.EnableRetry(3, time.Millisecond)
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	backends["b"].Fail()
	fe.Dispatch(workload.Request{Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	// Both replicas dead: altRoute finds nothing alive, so the request
	// drops without burning the budget on known-dead targets.
	if drops[backend.DropFailure] != 1 {
		t.Fatalf("failure drops = %d, want 1", drops[backend.DropFailure])
	}
}

func TestBackoffRetrySavesAfterTransientFailures(t *testing.T) {
	clock, backends, fe, drops := dropSetup(t, 3)
	fe.EnableRetry(3, time.Millisecond)
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
		{BackendID: "c", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	backends["b"].Fail()
	for i := 0; i < 9; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.Run()
	if total := drops[backend.DropFailure] + drops[backend.DropReconfig]; total != 0 {
		t.Fatalf("drops = %d, want the budget to save every request via c", total)
	}
	if fe.Retries() == 0 {
		t.Fatal("no retries recorded despite two dead replicas")
	}
}

func TestLinkDownFailsDispatchAndRetryReroutes(t *testing.T) {
	clock, backends, fe, drops := dropSetup(t, 2)
	fe.EnableRetry(2, time.Millisecond)
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	if !fe.SetLinkDown("a", true) {
		t.Fatal("SetLinkDown reported no change")
	}
	if fe.SetLinkDown("a", true) {
		t.Fatal("repeated SetLinkDown reported a change")
	}
	for i := 0; i < 4; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.Run()
	// a is alive but unreachable: dispatches to it fail and must reroute
	// to b (altRoute skips the cut link), so nothing drops.
	if drops[backend.DropFailure] != 0 {
		t.Fatalf("failure drops = %d, want 0", drops[backend.DropFailure])
	}
	if backends["a"].Device().BusyTime() != 0 {
		t.Fatal("partitioned backend executed work")
	}
	if !fe.SetLinkDown("a", false) {
		t.Fatal("heal reported no change")
	}
}

func TestAdmissionShedsLowPriorityFirst(t *testing.T) {
	clock, _, fe, drops := dropSetup(t, 1)
	if err := fe.SetTable(RoutingTable{
		"hi": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"lo": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.SetAdmission("hi", AdmissionConfig{Rate: 10, Burst: 5, Priority: 1})
	fe.SetAdmission("lo", AdmissionConfig{Rate: 10, Burst: 5, Priority: 0})
	fe.SetAdmissionReserve(5, 10)
	// Burst of 12 to each session in the same instant: lo admits its 5
	// bucketed requests and sheds 7; hi admits 5 + up to 10 from reserve.
	for i := 0; i < 12; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: "lo", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	loSheds := fe.AdmissionSheds()
	for i := 0; i < 12; i++ {
		fe.Dispatch(workload.Request{ID: uint64(100 + i), Session: "hi", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.Run()
	if loSheds != 7 {
		t.Fatalf("lo sheds = %d, want 7", loSheds)
	}
	if hiSheds := fe.AdmissionSheds() - loSheds; hiSheds != 0 {
		t.Fatalf("hi sheds = %d, want 0 (reserve absorbs its burst)", hiSheds)
	}
	if drops[backend.DropAdmission] != 7 {
		t.Fatalf("DropAdmission = %d, want 7", drops[backend.DropAdmission])
	}
}

func TestAdmissionRefillsByVirtualTime(t *testing.T) {
	clock, _, fe, drops := dropSetup(t, 1)
	if err := fe.SetTable(RoutingTable{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.SetAdmission("s", AdmissionConfig{Rate: 2, Burst: 1})
	fe.Dispatch(workload.Request{Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour}) // drains the bucket
	fe.Dispatch(workload.Request{ID: 1, Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	if drops[backend.DropAdmission] != 1 {
		t.Fatalf("immediate second dispatch: sheds = %d, want 1", drops[backend.DropAdmission])
	}
	clock.RunUntil(2 * time.Second) // 1s at 2 tokens/s refills past 1
	fe.Dispatch(workload.Request{ID: 2, Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	if drops[backend.DropAdmission] != 1 {
		t.Fatalf("post-refill dispatch shed: sheds = %d, want still 1", drops[backend.DropAdmission])
	}
}

// TestConcurrentApplyDeltaDuringBackoffRetry drives the clock (delivering
// backoff retries) on one goroutine while the control plane churns deltas
// on another: retries read immutable snapshots while ApplyDelta swaps them
// in. Meaningful under -race. The delta stream keeps a route to the only
// live backend at all times, so every retried request must survive.
func TestConcurrentApplyDeltaDuringBackoffRetry(t *testing.T) {
	clock, backends, fe, drops := dropSetup(t, 3)
	fe.EnableRetry(4, time.Millisecond)
	rt := RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
		{BackendID: "c", UnitID: "u", Weight: 1},
	}}
	if err := fe.SetTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	backends["b"].Fail()
	const n = 2000
	for i := 0; i < n; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		gen := uint64(1)
		for i := 0; i < 500; i++ {
			w := float64(1 + i%3)
			d := TableDelta{
				FromGen: gen, Gen: gen + 1,
				Set: map[string][]Route{"s": {
					{BackendID: "b", UnitID: "u", Weight: 1},
					{BackendID: "c", UnitID: "u", Weight: w},
				}},
			}
			if err := fe.ApplyDelta(d); err != nil {
				t.Error(err)
				return
			}
			gen++
		}
	}()
	clock.Run() // backoff retries fire while deltas swap tables
	wg.Wait()
	clock.Run() // drain retries scheduled near the end
	if got := drops[backend.DropFailure] + drops[backend.DropReconfig]; got != 0 {
		t.Fatalf("drops = %d, want every request retried onto the live backend", got)
	}
	if backends["c"].Device().BusyTime() == 0 {
		t.Fatal("live backend saw no work")
	}
}

// TestBreakerOpenSurvivesStaleDeltaResync pins the ordering between local
// breaker knowledge and control-plane resyncs: a local RemoveBackend
// repair bumps the generation, the next delta is rejected ErrStaleDelta,
// and the full SetTableGen resync — which may reinstall routes to the
// still-dead backend — must not reset the open breaker. Run under -race:
// the resync happens on another goroutine while the clock delivers.
func TestBreakerOpenSurvivesStaleDeltaResync(t *testing.T) {
	clock, backends, fe, drops := dropSetup(t, 2)
	fe.EnableBreakers(1, time.Hour)
	fe.EnableRetry(2, time.Millisecond)
	rt := RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}
	if err := fe.SetTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	// One failed dispatch opens a's breaker (threshold 1).
	fe.Dispatch(workload.Request{Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.RunUntil(2 * time.Second)
	if fe.OpenBreakers() != 1 {
		t.Fatalf("open breakers = %d, want 1", fe.OpenBreakers())
	}
	// Local repair: routes to a removed, generation bumped off the
	// control plane's sequence.
	fe.RemoveBackend("a")
	staleGen := uint64(1)
	for i := 0; i < 50; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i + 1), Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The control plane, unaware of the repair, pushes a delta built
		// on the pre-repair generation: it must be rejected stale.
		d := TableDelta{
			FromGen: staleGen, Gen: staleGen + 1,
			Set: map[string][]Route{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}},
		}
		if err := fe.ApplyDelta(d); !errors.Is(err, ErrStaleDelta) {
			t.Errorf("ApplyDelta after local repair = %v, want ErrStaleDelta", err)
			return
		}
		// Full resync reinstalls routes to the still-dead a.
		if err := fe.SetTableGen(rt, 10); err != nil {
			t.Error(err)
		}
	}()
	clock.Run()
	wg.Wait()
	if fe.Generation() != 10 {
		t.Fatalf("generation = %d, want 10 after resync", fe.Generation())
	}
	if fe.OpenBreakers() != 1 {
		t.Fatalf("open breakers after resync = %d, want a's breaker to survive", fe.OpenBreakers())
	}
	// Post-resync traffic must still route around a via its open breaker.
	for i := 0; i < 20; i++ {
		fe.Dispatch(workload.Request{ID: uint64(100 + i), Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.Run()
	if drops[backend.DropFailure] != 0 {
		t.Fatalf("failure drops = %d, want 0 (breaker routes around dead a)", drops[backend.DropFailure])
	}
}
