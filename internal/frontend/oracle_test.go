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
// breakers were on. Each runs on a session's private accumulator, as every
// session held one before sessions installed with one route list shared a
// pick sequence. TestPickMatchesOracle and FuzzPick require the one pick to
// reproduce their choices and WRR accumulators exactly.

// oracleState is one session's routes and private smooth-WRR accumulator.
type oracleState struct {
	routes []resolvedRoute
	wrr    []float64
}

// oraclePick is smooth weighted round-robin over every route.
func oraclePick(st *oracleState) resolvedRoute {
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
func oraclePickAvoiding(f *Frontend, st *oracleState) (resolvedRoute, bool) {
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
func oracleDispatchPick(f *Frontend, st *oracleState) (resolvedRoute, bool) {
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
// breaker threshold; data[1] the cooloff, how many sessions (1–4) are
// installed with the one route list, and the horizon and checkpoint
// spacing of one short shared pick sequence. So few sessions stay private
// at install; two or more are then put on that sequence (shareAmong), whose
// horizon a short script crosses. Then one byte per route gives its
// backend and weight; every later byte is a pick by one of the sessions, a
// dispatch failure or success reported against a backend, or a clock step.
// Each session's choices and its accumulator (materialized from the shared
// sequence while it reads one) must equal its own private-accumulator
// oracle's. While breakers are on but none has ever left closed, a third
// state per session also tracks the breaker-free oracle, which the pick
// must then match too.
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
	m := 1 + int(data[1]>>3)&3
	horizon := 1 + int(data[1]>>5)*8
	every := 1 + int(data[1]>>5)/2
	data = data[2:]
	if len(data) < n {
		return
	}
	routes := make([]Route, n)
	for i := range routes {
		c := data[i]
		routes[i] = Route{
			BackendID: pickBackends[c>>6],
			UnitID:    fmt.Sprintf("u%d", i),
			Weight:    0.25 + float64(c&63)/16,
		}
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
	install := TableDelta{Gen: 1}
	for j := range m {
		install.Set = append(install.Set, SessionRoutes{Session: fe.sid(fmt.Sprintf("s%d", j)), Routes: routes})
	}
	if err := fe.ApplyDelta(install); err != nil {
		t.Fatal(err)
	}
	sts := make([]*sessionState, m)
	ost, plain := make([]*oracleState, m), make([]*oracleState, m)
	taken := make([]int, m)
	for j, e := range install.Set {
		sts[j] = &fe.sessions[e.Session]
		ost[j] = &oracleState{routes: sts[j].seq.routes, wrr: make([]float64, n)}
		plain[j] = &oracleState{routes: sts[j].seq.routes, wrr: make([]float64, n)}
	}
	for j, st := range sts {
		if st.seq.picks != nil || st.seq.routes == nil || (j > 0 && (st.seq == sts[0].seq || &st.seq.routes[0] != &sts[0].seq.routes[0])) {
			t.Fatalf("script %x: %d sessions on %d routes do not each hold a private accumulator over one resolved list", script, m, n)
		}
	}
	if m > 1 {
		shareAmong(horizon, every, sts...)
	}

	for step, c := range data {
		switch k := c & 7; {
		case k <= 2:
			j := int(c>>3) % m
			var got Route
			i := fe.pick(sts[j])
			if i >= 0 {
				got = routes[i]
				taken[j]++
			}
			want, wok := oracleDispatchPick(old, ost[j])
			if (i >= 0) != wok || got != want.Route {
				t.Fatalf("script %x step %d: s%d pick %+v %v, oracle %+v %v", script, step, j, got, i >= 0, want.Route, wok)
			}
			if breakers && fe.BreakerTransitions() == 0 {
				if p := oraclePick(plain[j]); p.Route != got {
					t.Fatalf("script %x step %d: s%d pick %+v with no breaker open, plain WRR %+v", script, step, j, got, p.Route)
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
		for j, st := range sts {
			if st.seq.picks != nil {
				if st.at > len(st.seq.picks) || cap(st.seq.picks) != horizon || st.seq.every != every {
					t.Fatalf("script %x step %d: s%d at pick %d of %d recorded, horizon %d, checkpoint every %d", script, step, j, st.at, len(st.seq.picks), cap(st.seq.picks), st.seq.every)
				}
			} else if m > 1 && fe.BreakerTransitions() == 0 && taken[j] < horizon {
				t.Fatalf("script %x step %d: s%d left its shared sequence after %d picks with no breaker open", script, step, j, taken[j])
			}
			acc := st.accumulator()
			for i := range acc {
				if acc[i] != ost[j].wrr[i] {
					t.Fatalf("script %x step %d: s%d WRR accumulator %v, oracle %v", script, step, j, acc, ost[j].wrr)
				}
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
// same seeded random scripts, with breakers off and on and with one to four
// sessions on one route list, and requires identical choices, accumulators
// and breaker states.
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
