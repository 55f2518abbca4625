package frontend

import (
	"math"
	"testing"
	"time"

	"nexus/internal/workload"
)

func TestValidateRejectsNonFiniteWeights(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		rt := RoutingTable{"s": {{BackendID: "a", UnitID: "u", Weight: w}}}
		if rt.Validate() == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
}

// TestWRRResetOnTableUpdate pins that a table swap clears the smooth-WRR
// accumulator: credit earned under the old weights must not skew the split
// under the new ones (the route count is unchanged, so only an explicit
// reset protects the new proportions).
func TestWRRResetOnTableUpdate(t *testing.T) {
	_, _, fe, _ := setup(t, 2)
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 5},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	// Park the accumulator mid-cycle so backend b holds stale credit.
	for i := 0; i < 3; i++ {
		fe.state.Load().sessions["s"].pick()
	}
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := 0; i < 100; i++ {
		counts[fe.state.Load().sessions["s"].pick().BackendID]++
	}
	if counts["a"] != 50 || counts["b"] != 50 {
		t.Fatalf("picks after table swap = %v, want an exact 50/50 split", counts)
	}
}

func TestRemoveBackendRepairsRoutes(t *testing.T) {
	_, _, fe, _ := setup(t, 3)
	if err := fe.SetTable(RoutingTable{
		"both":   {{BackendID: "a", UnitID: "u", Weight: 2}, {BackendID: "b", UnitID: "u", Weight: 1}},
		"only-a": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"only-c": {{BackendID: "c", UnitID: "u", Weight: 1}},
	}); err != nil {
		t.Fatal(err)
	}
	if n := fe.RemoveBackend("a"); n != 2 {
		t.Fatalf("affected = %d, want 2", n)
	}
	if got := fe.Sessions(); len(got) != 2 || got[0] != "both" || got[1] != "only-c" {
		t.Fatalf("sessions after repair = %v", got)
	}
	routes := fe.state.Load().table["both"]
	if len(routes) != 1 || routes[0].BackendID != "b" {
		t.Fatalf("surviving routes = %v", routes)
	}
	if n := fe.RemoveBackend("a"); n != 0 {
		t.Fatalf("second removal affected %d sessions", n)
	}
}

// TestRemoveBackendCopyOnWrite pins that route repair never mutates the
// table object in place: replicas sharing the published table each repair
// their own copy.
func TestRemoveBackendCopyOnWrite(t *testing.T) {
	_, backends, fe1, _ := setup(t, 2)
	shared := RoutingTable{
		"s": {{BackendID: "a", UnitID: "u", Weight: 1}, {BackendID: "b", UnitID: "u", Weight: 1}},
	}
	fe2 := New(nil, backends, 0, nil)
	if err := fe1.SetTable(shared); err != nil {
		t.Fatal(err)
	}
	if err := fe2.SetTable(shared); err != nil {
		t.Fatal(err)
	}
	fe1.RemoveBackend("a")
	if len(shared["s"]) != 2 {
		t.Fatal("repair mutated the shared table in place")
	}
	if len(fe2.state.Load().table["s"]) != 2 {
		t.Fatal("repair leaked into the replica's table")
	}
	if len(fe1.state.Load().table["s"]) != 1 {
		t.Fatal("repair missing from the repaired frontend")
	}
}

func TestRetryReroutesAroundDeadBackend(t *testing.T) {
	clock, backends, fe, dropped := setup(t, 2)
	fe.EnableRetry(1, 0)
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	// Crash a after routing decisions are made: the request bound for it
	// finds it dead at enqueue and must fail over to b.
	backends["a"].Fail()
	for i := 0; i < 2; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.Run()
	if *dropped != 0 {
		t.Fatalf("dropped = %d, want retry to save both requests", *dropped)
	}
	if backends["b"].Device().BusyTime() == 0 {
		t.Fatal("surviving backend served nothing")
	}
}

func TestRetryRespectsDeadline(t *testing.T) {
	clock, backends, fe, dropped := setup(t, 2)
	fe.EnableRetry(1, 0)
	if err := fe.SetTable(RoutingTable{"s": {
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	backends["a"].Fail()
	backends["b"].Fail()
	// Both replicas dead: the retry path has no live alternative, so each
	// dispatch is dropped exactly once (no retry ping-pong).
	fe.Dispatch(workload.Request{ID: 1, Session: "s", Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	// A request with no deadline room must not be retried even when a live
	// replica exists.
	backends["b"].Restart()
	fe.Dispatch(workload.Request{ID: 2, Session: "s", Arrival: clock.Now(), Deadline: clock.Now()})
	clock.Run()
	if *dropped != 2 {
		t.Fatalf("dropped = %d, want 2", *dropped)
	}
}
