package frontend

import (
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
	fe = New(c, bes, nil, 0, func(req workload.Request, reason backend.Outcome) { drops[reason]++ })
	return c, bes, fe, drops
}

func TestRouteLeaseExpiryDropsWithoutServeStale(t *testing.T) {
	clock, _, fe, drops := dropSetup(t, 1)
	fe.EnableRouteLease(5*time.Second, false)
	if err := fe.SetTable(byID{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.Dispatch(workload.Request{Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.RunUntil(10 * time.Second) // lease (refreshed at the push) expires
	if fe.RouteStaleness() < 9*time.Second || !fe.LeaseExpired() {
		t.Fatalf("staleness = %v, expired = %v", fe.RouteStaleness(), fe.LeaseExpired())
	}
	fe.Dispatch(workload.Request{Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
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
	if err := fe.SetTable(byID{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(10 * time.Second)
	fe.Dispatch(workload.Request{Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	if fe.StaleServed() != 1 {
		t.Fatalf("staleServed = %d, want 1", fe.StaleServed())
	}
	fe.RenewRouteLease()
	if fe.LeaseExpired() || fe.RouteStaleness() != 0 {
		t.Fatalf("lease not renewed: staleness = %v", fe.RouteStaleness())
	}
	fe.Dispatch(workload.Request{Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
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
	if err := fe.SetTable(byID{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	for i := 0; i < 10; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
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
	if err := fe.SetTable(byID{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	fe.Dispatch(workload.Request{Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
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
		fe.Dispatch(workload.Request{ID: uint64(i + 1), Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
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
	if err := fe.SetTable(byID{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	backends["b"].Fail()
	fe.Dispatch(workload.Request{Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
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
	if err := fe.SetTable(byID{"s": {
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
		fe.Dispatch(workload.Request{ID: uint64(i), Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
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
	if err := fe.SetTable(byID{"s": {
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
		fe.Dispatch(workload.Request{ID: uint64(i), Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
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

// TestAdmissionShedsLowPriorityFirst: each session draws only from its own
// bucket, so a flood on "lo" is shed by lo's bucket and leaves hi's
// admissions untouched.
func TestAdmissionShedsLowPriorityFirst(t *testing.T) {
	clock, _, fe, drops := dropSetup(t, 1)
	if err := fe.SetTable(byID{
		"hi": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"lo": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.SetAdmission("hi", AdmissionConfig{Rate: 10, Burst: 5})
	fe.SetAdmission("lo", AdmissionConfig{Rate: 10, Burst: 5})
	// In the same instant, lo floods 12 requests and hi sends its burst
	// of 5: lo admits its 5 bucketed requests and sheds 7; hi admits all
	// 5. A sixth hi request finds hi's own bucket empty.
	for i := 0; i < 12; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: fe.sid("lo"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	loSheds := fe.AdmissionSheds()
	for i := 0; i < 5; i++ {
		fe.Dispatch(workload.Request{ID: uint64(100 + i), Session: fe.sid("hi"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	if hiSheds := fe.AdmissionSheds() - loSheds; hiSheds != 0 {
		t.Fatalf("hi sheds = %d, want 0 (lo's flood drew only lo's bucket)", hiSheds)
	}
	fe.Dispatch(workload.Request{ID: 105, Session: fe.sid("hi"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	if loSheds != 7 {
		t.Fatalf("lo sheds = %d, want 7", loSheds)
	}
	if hiSheds := fe.AdmissionSheds() - loSheds; hiSheds != 1 {
		t.Fatalf("hi sheds = %d, want 1 past its own burst", hiSheds)
	}
	if drops[backend.DropAdmission] != 8 {
		t.Fatalf("DropAdmission = %d, want 8", drops[backend.DropAdmission])
	}
}

func TestAdmissionRefillsByVirtualTime(t *testing.T) {
	clock, _, fe, drops := dropSetup(t, 1)
	if err := fe.SetTable(byID{"s": {{BackendID: "a", UnitID: "u", Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.SetAdmission("s", AdmissionConfig{Rate: 2, Burst: 1})
	fe.Dispatch(workload.Request{Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour}) // drains the bucket
	fe.Dispatch(workload.Request{ID: 1, Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	if drops[backend.DropAdmission] != 1 {
		t.Fatalf("immediate second dispatch: sheds = %d, want 1", drops[backend.DropAdmission])
	}
	clock.RunUntil(2 * time.Second) // 1s at 2 tokens/s refills past 1
	fe.Dispatch(workload.Request{ID: 2, Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.Run()
	if drops[backend.DropAdmission] != 1 {
		t.Fatalf("post-refill dispatch shed: sheds = %d, want still 1", drops[backend.DropAdmission])
	}
}

// TestConcurrentApplyDeltaDuringBackoffRetry interleaves clock steps that
// deliver backoff retries with control-plane deltas: each delta swaps in a
// new snapshot between retry deliveries, so retries resolve alternate
// routes against tables that changed since their first attempt. The delta
// stream keeps a route to the only live backend at all times, so every
// retried request must survive.
func TestConcurrentApplyDeltaDuringBackoffRetry(t *testing.T) {
	clock, backends, fe, drops := dropSetup(t, 3)
	fe.EnableRetry(4, time.Millisecond)
	rt := byID{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
		{BackendID: "c", UnitID: "u", Weight: 1},
	}}
	if err := fe.setTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	backends["b"].Fail()
	const n = 2000
	for i := 0; i < n; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	gen := uint64(1)
	for i := 0; i < 500; i++ {
		w := float64(1 + i%3)
		d := deltaByID{
			FromGen: gen, Gen: gen + 1,
			Set: byID{"s": {
				{BackendID: "b", UnitID: "u", Weight: 1},
				{BackendID: "c", UnitID: "u", Weight: w},
			}},
		}
		if err := fe.applyDelta(d); err != nil {
			t.Fatal(err)
		}
		gen++
		// Backoff retries scheduled over the next milliseconds fire
		// between this delta and the next.
		clock.RunUntil(clock.Now() + 50*time.Microsecond)
	}
	interleaved := fe.Retries()
	clock.Run() // drain retries scheduled near the end
	if got := drops[backend.DropFailure] + drops[backend.DropReconfig]; got != 0 {
		t.Fatalf("drops = %d, want every request retried onto the live backend", got)
	}
	if interleaved == 0 {
		t.Fatal("no backoff retry fired between the deltas")
	}
	if backends["c"].Device().BusyTime() == 0 {
		t.Fatal("live backend saw no work")
	}
}

// TestBreakerOpenSurvivesDeltaReinstall pins the ordering between local
// breaker knowledge and the control plane's deltas: after a delta drops a
// dead backend's routes, a later delta that reinstalls routes to it — the
// control plane has not noticed the death — must not reset its open
// breaker. The reinstall lands while the dispatches routed without it are
// still in flight.
func TestBreakerOpenSurvivesDeltaReinstall(t *testing.T) {
	clock, backends, fe, drops := dropSetup(t, 2)
	fe.EnableBreakers(1, time.Hour)
	fe.EnableRetry(2, time.Millisecond)
	rt := byID{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}
	if err := fe.setTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	// One failed dispatch opens a's breaker (threshold 1).
	fe.Dispatch(workload.Request{Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	clock.RunUntil(2 * time.Second)
	if fe.OpenBreakers() != 1 {
		t.Fatalf("open breakers = %d, want 1", fe.OpenBreakers())
	}
	if err := fe.applyDelta(dropBackend(rt, "a", 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i + 1), Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	// The next delta reinstalls routes to the still-dead a.
	if err := fe.applyDelta(deltaByID{FromGen: 2, Gen: 3, Set: rt}); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	if fe.TableVersion() != 3 {
		t.Fatalf("generation = %d, want 3 after the reinstall", fe.TableVersion())
	}
	if fe.OpenBreakers() != 1 {
		t.Fatalf("open breakers after the reinstall = %d, want a's breaker to survive", fe.OpenBreakers())
	}
	// Traffic after the reinstall must still route around a via its open
	// breaker.
	for i := 0; i < 20; i++ {
		fe.Dispatch(workload.Request{ID: uint64(100 + i), Session: fe.sid("s"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.Run()
	if drops[backend.DropFailure] != 0 {
		t.Fatalf("failure drops = %d, want 0 (breaker routes around dead a)", drops[backend.DropFailure])
	}
}
