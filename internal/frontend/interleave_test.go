package frontend

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
	"nexus/internal/workload"
)

// TestInterleavedControlPlaneAndDispatch replays one seeded interleaving of
// dispatches with every mutation the frontend accepts — routing deltas
// that replace the whole table, change a few sessions, or drop a dead
// backend's routes as the control plane's failure repair does, breaker
// trips and recoveries driven by crashing and restarting backends — and
// clock steps, all on one goroutine as in a deployment. Every dispatched
// request must end exactly once, served or dropped with a cause; a delta
// built on a generation the frontend does not hold must be rejected
// without effect; and the frontend must end holding exactly the table the
// control plane pushed.
func TestInterleavedControlPlaneAndDispatch(t *testing.T) {
	const (
		seed     = 1
		steps    = 3000
		sessions = 8
	)
	rng := rand.New(rand.NewSource(seed))
	ids := []string{"a", "b", "c"}
	clock := simclock.New()

	ends := make(map[uint64]int)
	causes := make(map[backend.Outcome]int)
	end := func(req workload.Request, outcome backend.Outcome) {
		ends[req.ID]++
		causes[outcome]++
	}
	units := []backend.Unit{{ID: "u", Profile: testProfile(), TargetBatch: 8}}
	backends := make(map[string]*backend.Backend)
	for _, id := range ids {
		dev := gpusim.New(clock, "gpu-"+id, profiler.GTX1080Ti, gpusim.Exclusive)
		be := backend.New(id, clock, dev, backend.Config{Overlap: true, MaxQueue: 64},
			func(req backend.Request, o backend.Outcome, _ time.Duration) { end(req, o) })
		if err := be.Configure(units); err != nil {
			t.Fatal(err)
		}
		backends[id] = be
	}
	fe := New(clock, backends, nil, 0, func(req workload.Request, reason backend.Outcome) {
		if reason == backend.OK {
			t.Errorf("request %d dropped without a cause", req.ID)
		}
		end(req, reason)
	})
	fe.EnableBreakers(2, 20*time.Millisecond)
	fe.EnableRetry(2, time.Millisecond)
	clock.RunUntil(5 * time.Second) // model loads

	// routes picks a random non-empty replica set with random weights.
	routes := func() []Route {
		var rs []Route
		for len(rs) == 0 {
			for _, id := range ids {
				if rng.Intn(2) == 0 {
					rs = append(rs, Route{BackendID: id, UnitID: "u", Weight: float64(1 + rng.Intn(3))})
				}
			}
		}
		return rs
	}
	full := func() byID {
		rt := make(byID, sessions)
		for i := 0; i < sessions; i++ {
			rt[fmt.Sprintf("s%d", i)] = routes()
		}
		return rt
	}

	// cur is the table the control plane last pushed, at generation gen.
	cur := full()
	gen := uint64(1)
	if err := fe.setTableGen(cur, gen); err != nil {
		t.Fatal(err)
	}
	push := func(d deltaByID) {
		if err := fe.applyDelta(d); err != nil {
			t.Fatalf("delta on generation %d: %v", gen, err)
		}
		for _, id := range d.Remove {
			delete(cur, id)
		}
		for id, routes := range d.Set {
			cur[id] = routes
		}
		gen++
	}
	var sent uint64
	stale, repairs := 0, 0
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op < 10: // a burst of dispatches, one session past the table
			for n := rng.Intn(8); n >= 0; n-- {
				now := clock.Now()
				fe.Dispatch(workload.Request{
					ID: sent, Session: fe.sid(fmt.Sprintf("s%d", rng.Intn(sessions+1))),
					Arrival: now, Deadline: now + time.Duration(20+rng.Intn(200))*time.Millisecond,
				})
				sent++
			}
		case op < 13:
			clock.RunUntil(clock.Now() + time.Duration(rng.Intn(20))*time.Millisecond)
		case op == 13:
			next := full()
			if err := fe.SetTable(next); err != nil {
				t.Fatal(err)
			}
			cur, gen = next, gen+1
		case op == 14: // a delta from a generation the frontend left behind
			err := fe.applyDelta(deltaByID{FromGen: gen - 1, Gen: gen + 1, Remove: []string{"s0"}})
			if !errors.Is(err, ErrStaleDelta) {
				t.Fatalf("step %d: delta from generation %d = %v, want ErrStaleDelta", step, gen-1, err)
			}
			stale++
		case op < 17:
			d := deltaByID{FromGen: gen, Gen: gen + 1, Set: byID{
				fmt.Sprintf("s%d", rng.Intn(sessions)): routes(),
			}}
			if rng.Intn(3) == 0 {
				d.Remove = []string{fmt.Sprintf("s%d", rng.Intn(sessions))}
			}
			push(d)
		case op == 17: // the control plane's repair after a backend death
			if d := dropBackend(cur, ids[rng.Intn(len(ids))], gen); len(d.Set)+len(d.Remove) > 0 {
				push(d)
				repairs++
			}
		case op == 18: // crash: failed dispatches trip its breaker
			backends[ids[rng.Intn(len(ids))]].Fail()
		default: // recover: a probe after cooloff closes its breaker
			be := backends[ids[rng.Intn(len(ids))]]
			if !be.Alive() {
				be.Restart()
				if err := be.Configure(units); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	clock.Run()

	for id := uint64(0); id < sent; id++ {
		if n := ends[id]; n != 1 {
			t.Fatalf("request %d ended %d times, want exactly once", id, n)
		}
	}
	if len(ends) != int(sent) {
		t.Fatalf("%d request IDs ended, %d dispatched", len(ends), sent)
	}
	t.Logf("%d requests ended %v; %d repairs, %d stale deltas, %d breaker transitions, %d retries",
		sent, causes, repairs, stale, fe.BreakerTransitions(), fe.Retries())
	if got := fe.snapshotByID(); len(got) != len(cur) {
		t.Fatalf("frontend routes %d sessions, control plane pushed %d", len(got), len(cur))
	}
	for id, routes := range fe.snapshotByID() {
		for i := range routes {
			if len(routes) != len(cur[id]) || routes[i] != cur[id][i] {
				t.Fatalf("session %s routes %v, control plane pushed %v", id, routes, cur[id])
			}
		}
	}
	if fe.TableVersion() != gen {
		t.Fatalf("frontend holds generation %d, control plane pushed %d", fe.TableVersion(), gen)
	}
	// The interleaving must reach every path it claims to cover.
	for _, o := range []backend.Outcome{backend.OK, backend.DropUnroutable, backend.DropFailure} {
		if causes[o] == 0 {
			t.Errorf("no request ended %v; outcomes %v", o, causes)
		}
	}
	if stale == 0 || repairs == 0 {
		t.Errorf("stale deltas %d, repairs %d: want both exercised", stale, repairs)
	}
	if fe.BreakerTransitions() == 0 || fe.Retries() == 0 {
		t.Errorf("breaker transitions %d, retries %d: want both exercised",
			fe.BreakerTransitions(), fe.Retries())
	}
}

// raceTable builds a table of n sessions, each routed across every backend.
func raceTable(backends map[string]*backend.Backend, n int) byID {
	rt := make(byID, n)
	for i := 0; i < n; i++ {
		var routes []Route
		for beID := range backends {
			routes = append(routes, Route{BackendID: beID, UnitID: "u", Weight: 1})
		}
		rt[fmt.Sprintf("s%02d", i)] = routes
	}
	return rt
}

// TestConcurrentDispatchAgainstControlPlane interleaves eight dispatch
// streams with control-plane churn — deltas, whole-table replacements and
// backend-death repairs landing at seeded points mid-burst, before the
// burst's sends are delivered. Every dispatch must be accounted for: routed or observed as a
// drop, never lost or double-counted.
func TestConcurrentDispatchAgainstControlPlane(t *testing.T) {
	const (
		dispatchers = 8
		perPhase    = 400
		phases      = 6
		sessions    = 16
	)
	rng := rand.New(rand.NewSource(1))
	clock, backends, _, _ := setup(t, 3)
	var drops uint64
	fe := New(clock, backends, nil, 0, func(req workload.Request, reason backend.Outcome) { drops++ })
	clock.RunUntil(5 * time.Second) // model loads
	if err := fe.setTableGen(raceTable(backends, sessions), 1); err != nil {
		t.Fatal(err)
	}

	var sent uint64
	gen := uint64(1)
	// churn is the control plane's turn: a delta that rewrites half the
	// sessions and, on odd phases, a backend repair and a whole-table
	// replacement.
	churn := func(phase int) {
		rt := raceTable(backends, sessions)
		set := make(byID, sessions/2)
		for i := 0; i < sessions/2; i++ {
			set[fmt.Sprintf("s%02d", i)] = []Route{
				{BackendID: "a", UnitID: "u", Weight: 1},
				{BackendID: "b", UnitID: "u", Weight: 2},
			}
		}
		if err := fe.applyDelta(deltaByID{FromGen: gen, Gen: gen + 1, Set: set}); err != nil {
			t.Fatal(err)
		}
		gen++
		if phase%2 == 1 {
			for id, routes := range set {
				rt[id] = routes
			}
			if err := fe.applyDelta(dropBackend(rt, "c", gen)); err != nil {
				t.Fatal(err)
			}
			if err := fe.setTableGen(raceTable(backends, sessions), gen+2); err != nil {
				t.Fatal(err)
			}
			gen += 2
		}
	}
	for phase := 0; phase < phases; phase++ {
		now := clock.Now()
		at := rng.Intn(dispatchers * perPhase)
		for k := 0; k < dispatchers*perPhase; k++ {
			if k == at {
				churn(phase)
			}
			d, i := k%dispatchers, k/dispatchers
			fe.Dispatch(workload.Request{
				ID: uint64(d*perPhase + i), Session: fe.sid(fmt.Sprintf("s%02d", i%sessions)),
				Arrival: now, Deadline: now + time.Second,
			})
			sent++
		}
		clock.Run()
	}
	if got := fe.Dispatches() + drops; got != sent {
		t.Fatalf("routed %d + dropped %d != sent %d", fe.Dispatches(), drops, sent)
	}
}

// TestConcurrentDispatchAgainstBreakerFlips interleaves dispatches with
// breaker state transitions: between every two dispatches backend a's
// breaker steps closed → open → half-open → closed, through the same
// transition the delivery path uses, so pick-side routeAllowed/markProbe
// reads meet every state.
func TestConcurrentDispatchAgainstBreakerFlips(t *testing.T) {
	const dispatchers = 8
	clock, backends, _, _ := setup(t, 3)
	var drops uint64
	fe := New(clock, backends, nil, 0, func(req workload.Request, reason backend.Outcome) { drops++ })
	clock.RunUntil(5 * time.Second)
	fe.EnableBreakers(2, 100*time.Millisecond)
	if err := fe.setTableGen(raceTable(backends, 4), 1); err != nil {
		t.Fatal(err)
	}

	fe.breakerFailure("a") // creates a's breaker, still closed
	b := fe.breakers["a"]
	flip := func(i int) {
		switch i % 3 {
		case 0:
			b.until = clock.Now() + 50*time.Millisecond
			if b.state == breakerClosed {
				fe.transition("a", b, breakerOpen)
			}
		case 1:
			if b.state == breakerOpen {
				fe.transition("a", b, breakerHalfOpen)
			}
		default:
			if b.state == breakerHalfOpen {
				fe.transition("a", b, breakerClosed)
			}
		}
	}
	now := clock.Now()
	var sent uint64
	for k := 0; k < dispatchers*1000; k++ {
		flip(k)
		d, i := k%dispatchers, k/dispatchers
		fe.Dispatch(workload.Request{
			ID: uint64(d*1000 + i), Session: fe.sid(fmt.Sprintf("s%02d", i%4)),
			Arrival: now, Deadline: now + time.Second,
		})
		sent++
	}
	clock.Run()
	if got := fe.Dispatches() + drops; got != sent {
		t.Fatalf("routed %d + dropped %d != sent %d", fe.Dispatches(), drops, sent)
	}
	if fe.BreakerTransitions() == 0 {
		t.Fatal("no breaker transitions interleaved with the dispatches")
	}
}
