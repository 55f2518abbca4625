package frontend

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nexus/internal/backend"
	"nexus/internal/session"
)

// sharedTable routes s1–s3 through one []Route and s4–s5 through another,
// as the control plane does for members of one prefix-batched unit. s6
// holds an equal but distinct copy of s1's list.
func sharedTable() (byID, []Route, []Route) {
	unitA := []Route{
		{BackendID: "a", UnitID: "u", Weight: 1},
		{BackendID: "b", UnitID: "u", Weight: 2.5},
		{BackendID: "c", UnitID: "u", Weight: 3.7},
	}
	unitB := []Route{
		{BackendID: "b", UnitID: "u", Weight: 1},
		{BackendID: "c", UnitID: "u", Weight: 1.3},
	}
	rt := byID{
		"s1": unitA, "s2": unitA, "s3": unitA,
		"s4": unitB, "s5": unitB,
		"s6": append([]Route(nil), unitA...),
	}
	return rt, unitA, unitB
}

// resolvedOf returns the identity of a session's resolved route slice.
func resolvedOf(t *testing.T, fe *Frontend, sid string) *resolvedRoute {
	t.Helper()
	st := fe.state(sid)
	if st == nil {
		t.Fatalf("session %s has no routes", sid)
	}
	return &st.seq.routes[0]
}

// assertShared checks which sessions share one resolved slice and one pick
// sequence: sessions in one group share the slice, sessions in different
// groups do not, and a group shares one pick sequence exactly when it is
// large enough to pay for one (sharesPay); otherwise every member picks
// from an accumulator of its own. It then picks once for up to four
// sessions of each group in turn and checks that those sessions never
// share a pick position: each pick moves only the picking session's place.
func assertShared(t *testing.T, fe *Frontend, label string, groups ...[]string) {
	t.Helper()
	seen := map[*resolvedRoute]int{}
	owner := map[*pickSeq]string{}
	var all []string
	for g, sids := range groups {
		shared := sharesPay(len(sids), len(fe.state(sids[0]).seq.routes))
		for i, sid := range sids {
			p := resolvedOf(t, fe, sid)
			if prev, ok := seen[p]; ok && prev != g {
				t.Fatalf("%s: %s shares a resolved slice with group %d, want group %d", label, sid, prev, g)
			}
			if p != resolvedOf(t, fe, sids[0]) {
				t.Fatalf("%s: %s and %s hold separate resolved copies of one route list", label, sid, sids[0])
			}
			seen[p] = g
			seq := fe.state(sid).seq
			if (seq.picks != nil) != shared {
				t.Fatalf("%s: %s of a group of %d has a shared sequence: %v", label, sid, len(sids), !shared)
			}
			if shared && seq != fe.state(sids[0]).seq {
				t.Fatalf("%s: %s and %s read separate pick sequences of one route list", label, sid, sids[0])
			}
			if other, ok := owner[seq]; !shared && ok {
				t.Fatalf("%s: %s shares its private accumulator with %s", label, sid, other)
			}
			owner[seq] = sid
			if i < 4 {
				all = append(all, sid)
			}
		}
	}
	type place struct {
		seq *pickSeq
		at  int
		acc []float64
	}
	placeOf := func(sid string) place {
		st := fe.state(sid)
		return place{st.seq, st.at, st.accumulator()}
	}
	for _, sid := range all {
		before := map[string]place{}
		for _, o := range all {
			before[o] = placeOf(o)
		}
		fe.next(fe.state(sid))
		for _, o := range all {
			p, b := placeOf(o), before[o]
			moved := p.seq != b.seq || p.at != b.at || !slices.Equal(p.acc, b.acc)
			if o != sid && moved {
				t.Fatalf("%s: a pick by %s moved %s's place", label, sid, o)
			}
			if o == sid && b.seq.picks != nil && p.at != b.at+1 {
				t.Fatalf("%s: a pick by %s moved it from pick %d to %d", label, sid, b.at, p.at)
			}
		}
	}
}

// TestSharedRoutesResolvedOnce pins that every install — the first one,
// a delta, and the delta that drops a dead backend's routes — gives
// sessions whose entries share one []Route a single resolved slice, and
// keeps distinct lists apart even when their contents are equal.
func TestSharedRoutesResolvedOnce(t *testing.T) {
	_, _, fe, _ := setup(t, 3)
	rt, unitA, _ := sharedTable()
	if err := fe.setTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	assertShared(t, fe, "first install", []string{"s1", "s2", "s3"}, []string{"s4", "s5"}, []string{"s6"})

	unitC := []Route{{BackendID: "a", UnitID: "u", Weight: 2}, {BackendID: "c", UnitID: "u", Weight: 1}}
	if err := fe.applyDelta(deltaByID{FromGen: 1, Gen: 2,
		Set: byID{"s1": unitC, "s7": unitC, "s8": unitC}}); err != nil {
		t.Fatal(err)
	}
	assertShared(t, fe, "ApplyDelta", []string{"s1", "s7", "s8"}, []string{"s2", "s3"}, []string{"s4", "s5"}, []string{"s6"})

	rt["s1"], rt["s7"], rt["s8"] = unitC, unitC, unitC
	drop := dropBackend(rt, "b", 2)
	if len(drop.Set) != 5 || len(drop.Remove) != 0 {
		t.Fatalf("dropping b sets %d sessions and removes %v, want 5 (s2–s6) and none", len(drop.Set), drop.Remove)
	}
	if err := fe.applyDelta(drop); err != nil {
		t.Fatal(err)
	}
	assertShared(t, fe, "drop b", []string{"s1", "s7", "s8"}, []string{"s2", "s3"}, []string{"s4", "s5"}, []string{"s6"})
	table := fe.snapshotByID()
	if len(table["s2"]) != 2 || len(table["s4"]) != 1 {
		t.Fatalf("repaired lists have %d and %d routes, want 2 and 1", len(table["s2"]), len(table["s4"]))
	}
	if unitA[1].BackendID != "b" {
		t.Fatal("ApplyDelta mutated a published route list")
	}
}

// TestSharedRoutesPickSequence pins that sharing a resolved slice leaves
// each session's smooth-WRR pick sequence exactly what a private copy
// gives, with picks of the sharing sessions interleaved at random.
func TestSharedRoutesPickSequence(t *testing.T) {
	_, _, fe, _ := setup(t, 3)
	rt, _, _ := sharedTable()
	if err := fe.SetTable(rt); err != nil {
		t.Fatal(err)
	}
	private := map[string]*oracleState{}
	for sid, routes := range rt {
		rs := make([]resolvedRoute, len(routes))
		for i, r := range routes {
			rs[i] = resolvedRoute{Route: r, be: fe.backends[r.BackendID]}
		}
		private[sid] = &oracleState{routes: rs, wrr: make([]float64, len(rs))}
	}
	sids := fe.Sessions()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000*len(sids); i++ {
		sid := sids[rng.Intn(len(sids))]
		got, want := fe.next(fe.state(sid)), oraclePick(private[sid])
		if got.BackendID != want.BackendID || got.be != want.be {
			t.Fatalf("pick %d of %s: %s, want %s", i, sid, got.BackendID, want.BackendID)
		}
	}
}

// TestRemoveBackendSparesOtherReplica pins copy-on-write across frontend
// replicas that installed the same table: the delta removing a backend on
// one replica leaves the other's shared resolved slices and the published
// lists untouched.
func TestRemoveBackendSparesOtherReplica(t *testing.T) {
	clock, backends, fe1, _ := setup(t, 3)
	fe2 := New(clock, backends, nil, 0, nil)
	rt, unitA, unitB := sharedTable()
	for _, fe := range []*Frontend{fe1, fe2} {
		if err := fe.SetTable(rt); err != nil {
			t.Fatal(err)
		}
	}
	before := map[string]*resolvedRoute{}
	for _, sid := range fe2.Sessions() {
		before[sid] = resolvedOf(t, fe2, sid)
	}
	if err := fe1.applyDelta(dropBackend(rt, "b", 1)); err != nil {
		t.Fatal(err)
	}
	for sid, routes := range fe1.snapshotByID() {
		for _, r := range routes {
			if r.BackendID == "b" {
				t.Fatalf("first replica's %s still routes to b", sid)
			}
		}
	}
	for sid, p := range before {
		st := fe2.state(sid)
		if &st.seq.routes[0] != p || len(st.seq.routes) != len(rt[sid]) {
			t.Fatalf("second replica's %s routes changed", sid)
		}
		for i, r := range st.seq.routes {
			if r.Route != rt[sid][i] {
				t.Fatalf("second replica's %s route %d = %+v, want %+v", sid, i, r.Route, rt[sid][i])
			}
		}
	}
	assertShared(t, fe2, "other replica", []string{"s1", "s2", "s3"}, []string{"s4", "s5"}, []string{"s6"})
	if len(unitA) != 3 || unitA[1].BackendID != "b" || unitB[0].BackendID != "b" {
		t.Fatal("ApplyDelta mutated a published route list")
	}
}

// TestSessionStateIndependentOfReplicas: sessions installed with one route
// list cost the same dispatch state whether it has 4 routes or 32. Each
// holds only its place in the list's shared pick sequence, never a slot
// per replica, so frontend memory grows with sessions plus replicas, not
// with their product.
func TestSessionStateIndependentOfReplicas(t *testing.T) {
	const sessions = 4096
	perSession := func(replicas int) float64 {
		backends := make(map[string]*backend.Backend, replicas)
		routes := make([]Route, replicas)
		for i := range routes {
			id := fmt.Sprintf("b%d", i)
			backends[id] = nil
			routes[i] = Route{BackendID: id, UnitID: "u", Weight: float64(1 + i%3)}
		}
		names := session.NewTable()
		install := TableDelta{Gen: 1}
		for i := range sessions {
			install.Set = append(install.Set, SessionRoutes{Session: names.Intern(fmt.Sprintf("s%d", i)), Routes: routes})
		}
		// Two collections: the first only moves sync.Pool contents (fmt's
		// printers) to the victim cache, and the second frees them, so
		// they do not vanish between the readings.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		fe := New(nil, backends, names, 0, nil)
		if err := fe.ApplyDelta(install); err != nil {
			t.Fatal(err)
		}
		for range 16 { // every session advances, the first extends the sequence
			for _, e := range install.Set {
				fe.pick(&fe.sessions[e.Session])
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		for _, e := range install.Set {
			if st := &fe.sessions[e.Session]; st.seq.picks == nil || st.at != 16 {
				t.Fatalf("%d replicas: session %d left the shared sequence", replicas, e.Session)
			}
		}
		runtime.KeepAlive(fe)
		return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / sessions
	}
	narrow, wide := perSession(4), perSession(32)
	t.Logf("frontend heap per session: %.1f B over 4 routes, %.1f B over 32", narrow, wide)
	// A private accumulator would cost 28 more float64s, 224 B, per session.
	if wide-narrow > 8 {
		t.Fatalf("per-session dispatch state grows with replicas: %.1f B over 4 routes, %.1f B over 32", narrow, wide)
	}
}

// TestInstallSharesWherePays: an install puts the sessions that hold one
// route list on one shared pick sequence exactly when they are enough for
// its buffers (8 KB of picks plus 18 accumulators) to cost no more than
// their private accumulators would: at least 1,042 sessions on a one-route
// list, 360 on three routes, 61 on 24. One session fewer keeps every
// member private.
func TestInstallSharesWherePays(t *testing.T) {
	for _, tc := range []struct{ routes, least int }{{1, 1042}, {3, 360}, {24, 61}} {
		backends := make(map[string]*backend.Backend, tc.routes)
		fewer, enough := make([]Route, tc.routes), make([]Route, tc.routes)
		for i := range fewer {
			id := fmt.Sprintf("b%d", i)
			backends[id] = nil
			fewer[i] = Route{BackendID: id, UnitID: "u", Weight: float64(1 + i%3)}
			enough[i] = fewer[i]
		}
		fe := New(nil, backends, nil, 0, nil)
		install := TableDelta{Gen: 1}
		var below, at []string
		for i := range 2*tc.least - 1 {
			sid, routes := fmt.Sprintf("s%d", i), enough
			if i < tc.least-1 {
				below, routes = append(below, sid), fewer
			} else {
				at = append(at, sid)
			}
			install.Set = append(install.Set, SessionRoutes{Session: fe.sid(sid), Routes: routes})
		}
		if err := fe.ApplyDelta(install); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%d routes", tc.routes)
		if fe.state(below[0]).seq.picks != nil || fe.state(at[0]).seq.picks == nil {
			t.Fatalf("%s: %d sessions share a sequence: %v; %d sessions: %v, want false and true", label,
				len(below), fe.state(below[0]).seq.picks != nil, len(at), fe.state(at[0]).seq.picks != nil)
		}
		assertShared(t, fe, label, below, at)
		if seq := fe.state(at[0]).seq; cap(seq.picks) != pickHorizon || seq.every != checkpointEvery {
			t.Fatalf("%s: shared sequence holds %d picks with a checkpoint every %d, want %d and %d",
				label, cap(seq.picks), seq.every, pickHorizon, checkpointEvery)
		}
	}
	if sharesPay(1<<20, math.MaxUint16+2) || !sharesPay(1<<20, math.MaxUint16+1) {
		t.Fatal("a list of more routes than a uint16 indexes may share a sequence, or one that fits may not")
	}
}

// TestSequenceLeaveAllocs: a session leaves a shared sequence, wherever it
// stands in it, with two allocations (its pickSeq and its accumulator) and
// an accumulator bit-identical to the private one it would have held.
// Checkpoints every 256 picks bound the replay; the places here sit on
// checkpoints, just past them, just before them and at the horizon.
func TestSequenceLeaveAllocs(t *testing.T) {
	const sessions, replicas = 64, 24
	backends := make(map[string]*backend.Backend, replicas)
	list := make([]Route, replicas)
	for i := range list {
		id := fmt.Sprintf("b%d", i)
		backends[id] = nil
		list[i] = Route{BackendID: id, UnitID: "u", Weight: 0.25 + float64(i%7)/3}
	}
	fe := New(nil, backends, nil, 0, nil)
	install := TableDelta{Gen: 1}
	for i := range sessions {
		install.Set = append(install.Set, SessionRoutes{Session: fe.sid(fmt.Sprintf("s%d", i)), Routes: list})
	}
	if err := fe.ApplyDelta(install); err != nil {
		t.Fatal(err)
	}
	st := &fe.sessions[install.Set[0].Session]
	seq := st.seq
	oracle := &oracleState{routes: seq.routes, wrr: make([]float64, replicas)}
	want := [][]float64{slices.Clone(oracle.wrr)} // want[k]: accumulator after k picks
	for st.at < cap(seq.picks) {
		if fe.next(st) != oraclePick(oracle) || st.seq != seq {
			t.Fatalf("pick %d left the sequence or differs from the oracle", st.at)
		}
		want = append(want, slices.Clone(oracle.wrr))
	}
	for _, at := range []int{0, 1, 255, 256, 257, 1000, 4095, 4096} {
		var acc []float64
		allocs := testing.AllocsPerRun(10, func() {
			st.seq, st.at = seq, at
			acc = st.own().wrr
		})
		if allocs != 2 {
			t.Errorf("leaving at pick %d allocates %.1f times, want 2", at, allocs)
		}
		if !slices.Equal(acc, want[at]) {
			t.Fatalf("leaving at pick %d materialized %v, private accumulator %v", at, acc, want[at])
		}
	}
}
