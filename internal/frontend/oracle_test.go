package frontend

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/simclock"
)

// The two route picks the frontend had before they were folded into
// Frontend.pick, kept as a test-only oracle: a breaker-free smooth WRR over
// every route, and a breaker-aware one that Dispatch used only while
// breakers were on. TestPickMatchesOracle and FuzzPick require the one
// pick to reproduce their choices and WRR accumulators exactly.

// oraclePick is smooth weighted round-robin over every route.
func oraclePick(st *sessionState) resolvedRoute {
	state := st.wrr
	var total float64
	best := 0
	for i := range st.routes {
		w := st.routes[i].Weight
		state[i] += w
		total += w
		if state[i] > state[best] {
			best = i
		}
	}
	state[best] -= total
	return st.routes[best]
}

// oraclePickAvoiding is smooth weighted round-robin restricted to routes
// whose breakers admit traffic; it flips the picked backend's cooled-off
// breaker to half-open.
func oraclePickAvoiding(f *Frontend, st *sessionState) (resolvedRoute, bool) {
	state := st.wrr
	var total float64
	best := -1
	for i := range st.routes {
		beID := st.routes[i].BackendID
		if !f.routeAllowed(beID) {
			continue
		}
		w := st.routes[i].Weight
		state[i] += w
		total += w
		if best < 0 || state[i] > state[best] {
			best = i
		}
	}
	if best < 0 {
		return resolvedRoute{}, false
	}
	state[best] -= total
	f.markProbe(st.routes[best].BackendID)
	return st.routes[best], true
}

// oracleDispatchPick is the pick the pre-fold Dispatch made.
func oracleDispatchPick(f *Frontend, st *sessionState) (resolvedRoute, bool) {
	if f.breakers != nil {
		return oraclePickAvoiding(f, st)
	}
	return oraclePick(st), true
}

// pickBackends are the backend IDs a pick script draws its routes from.
var pickBackends = []string{"b0", "b1", "b2", "b3"}

// checkPickMatchesOracle runs one pick script on two frontends that share a
// clock, one picking with Frontend.pick and one with the oracle, and
// requires identical choices, WRR accumulators and breaker states after
// every step. data[0] selects breakers on or off, the route count and the
// breaker threshold; data[1] the cooloff; then one byte per route gives its
// backend and weight; every later byte is a pick, a dispatch failure or
// success reported against a backend, or a clock step. While breakers are
// on but none has ever left closed, a third state also tracks the
// breaker-free oracle, which the pick must then match too.
func checkPickMatchesOracle(t *testing.T, data []byte) {
	t.Helper()
	script := data
	if len(data) < 2 {
		return
	}
	breakers := data[0]&1 == 1
	n := 1 + int(data[0]>>1)%6
	threshold := 1 + int(data[0]>>4)%3
	cooloff := time.Duration(data[1]%8) * 10 * time.Millisecond
	data = data[2:]
	if len(data) < n {
		return
	}
	routes := make([]resolvedRoute, n)
	for i := range routes {
		c := data[i]
		routes[i] = resolvedRoute{Route: Route{
			BackendID: pickBackends[c>>6],
			UnitID:    fmt.Sprintf("u%d", i),
			Weight:    0.25 + float64(c&63)/16,
		}}
	}
	data = data[n:]

	clock := simclock.New()
	backends := make(map[string]*backend.Backend, len(pickBackends))
	for _, id := range pickBackends {
		backends[id] = nil
	}
	fe, old := New(clock, backends, nil, 0, nil), New(clock, backends, nil, 0, nil)
	if breakers {
		fe.EnableBreakers(threshold, cooloff)
		old.EnableBreakers(threshold, cooloff)
	}
	st := &sessionState{routes: routes, wrr: make([]float64, n)}
	ost := &sessionState{routes: routes, wrr: make([]float64, n)}
	plain := &sessionState{routes: routes, wrr: make([]float64, n)}

	for step, c := range data {
		switch k := c & 7; {
		case k <= 2:
			var got resolvedRoute
			i := fe.pick(st)
			if i >= 0 {
				got = st.routes[i]
			}
			want, wok := oracleDispatchPick(old, ost)
			if (i >= 0) != wok || got.Route != want.Route {
				t.Fatalf("script %x step %d: pick %+v %v, oracle %+v %v", script, step, got.Route, i >= 0, want.Route, wok)
			}
			if breakers && fe.BreakerTransitions() == 0 {
				if p := oraclePick(plain); p.Route != got.Route {
					t.Fatalf("script %x step %d: pick %+v with no breaker open, plain WRR %+v", script, step, got.Route, p.Route)
				}
			}
		case k <= 4:
			id := pickBackends[c>>3%4]
			fe.breakerFailure(id)
			old.breakerFailure(id)
		case k == 5:
			id := pickBackends[c>>3%4]
			fe.breakerSuccess(id)
			old.breakerSuccess(id)
		default:
			clock.RunUntil(clock.Now() + time.Duration(c>>3)*5*time.Millisecond)
		}
		for i := range st.wrr {
			if st.wrr[i] != ost.wrr[i] {
				t.Fatalf("script %x step %d: WRR accumulator %v, oracle %v", script, step, st.wrr, ost.wrr)
			}
		}
		for _, id := range pickBackends {
			if b, o := fe.breakers[id], old.breakers[id]; b != nil && *b != *o {
				t.Fatalf("script %x step %d: breaker %s %+v, oracle %+v", script, step, id, *b, *o)
			}
		}
		if fe.BreakerTransitions() != old.BreakerTransitions() {
			t.Fatalf("script %x step %d: %d breaker transitions, oracle %d",
				script, step, fe.BreakerTransitions(), old.BreakerTransitions())
		}
	}
}

// TestPickMatchesOracle drives Frontend.pick and the pre-fold picks with the
// same seeded random scripts, with breakers off and on, and requires
// identical choices, accumulators and breaker states.
func TestPickMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		data := make([]byte, 4+rng.Intn(300))
		rng.Read(data)
		checkPickMatchesOracle(t, data)
	}
}

// FuzzPick is TestPickMatchesOracle over fuzzed scripts, seeded by the
// committed corpus under testdata/fuzz.
func FuzzPick(f *testing.F) {
	f.Fuzz(checkPickMatchesOracle)
}
