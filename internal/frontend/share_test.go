package frontend

import (
	"math/rand"
	"testing"
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
	return &st.routes[0]
}

// assertShared checks which sessions share one resolved slice: sessions in
// one group share it, sessions in different groups do not, and every
// session keeps its own WRR accumulator.
func assertShared(t *testing.T, fe *Frontend, label string, groups ...[]string) {
	t.Helper()
	seen := map[*resolvedRoute]int{}
	wrr := map[*float64]string{}
	for g, sids := range groups {
		for _, sid := range sids {
			p := resolvedOf(t, fe, sid)
			if prev, ok := seen[p]; ok && prev != g {
				t.Fatalf("%s: %s shares a resolved slice with group %d, want group %d", label, sid, prev, g)
			}
			if p != resolvedOf(t, fe, sids[0]) {
				t.Fatalf("%s: %s and %s hold separate resolved copies of one route list", label, sid, sids[0])
			}
			seen[p] = g
			w := &fe.state(sid).wrr[0]
			if other, ok := wrr[w]; ok {
				t.Fatalf("%s: %s shares its WRR accumulator with %s", label, sid, other)
			}
			wrr[w] = sid
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
	private := map[string]*sessionState{}
	for sid, routes := range rt {
		rs := make([]resolvedRoute, len(routes))
		for i, r := range routes {
			rs[i] = resolvedRoute{Route: r, be: fe.backends[r.BackendID]}
		}
		private[sid] = &sessionState{routes: rs, wrr: make([]float64, len(rs))}
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
		if &st.routes[0] != p || len(st.routes) != len(rt[sid]) {
			t.Fatalf("second replica's %s routes changed", sid)
		}
		for i, r := range st.routes {
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
