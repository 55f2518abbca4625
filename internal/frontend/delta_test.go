package frontend

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"nexus/internal/session"
	"nexus/internal/workload"
)

// dropBackend is the delta the control plane publishes after backend beID
// dies, on top of rt at generation from: each session routed to beID gets
// its surviving routes, sessions that shared a route list share the
// repaired list (as members of one unit do), and sessions left without
// routes are removed.
func dropBackend(rt byID, beID string, from uint64) deltaByID {
	d := deltaByID{FromGen: from, Gen: from + 1, Set: byID{}}
	ids := make([]string, 0, len(rt))
	for id := range rt {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	kept := map[*Route][]Route{}
	for _, id := range ids {
		routes := rt[id]
		keep, ok := kept[&routes[0]]
		if !ok {
			for _, r := range routes {
				if r.BackendID != beID {
					keep = append(keep, r)
				}
			}
			kept[&routes[0]] = keep
		}
		switch {
		case len(keep) == 0:
			d.Remove = append(d.Remove, id)
		case len(keep) < len(routes):
			d.Set[id] = keep
		}
	}
	return d
}

func TestApplyDeltaSetRemove(t *testing.T) {
	_, _, fe, _ := setup(t, 2)
	rt := byID{
		"s1": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"s2": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}
	if err := fe.setTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	err := fe.applyDelta(deltaByID{
		FromGen: 1, Gen: 2,
		Set:    byID{"s3": {{BackendID: "b", UnitID: "u", Weight: 1}}},
		Remove: []string{"s2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if fe.TableVersion() != 2 {
		t.Fatalf("generation = %d, want 2", fe.TableVersion())
	}
	got := fe.Sessions()
	if len(got) != 2 || got[0] != "s1" || got[1] != "s3" {
		t.Fatalf("sessions after delta = %v, want [s1 s3]", got)
	}
}

// TestApplyDeltaCarriesCounts: in-window request counts survive both a
// route change (Set) and a removal (residual window), so AddObservedRates
// never loses traffic across a push.
func TestApplyDeltaCarriesCounts(t *testing.T) {
	clock, _, fe, _ := setup(t, 2)
	rt := byID{
		"s1": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"s2": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}
	if err := fe.setTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(time.Second)
	fe.observedByID() // reset window
	for i := 0; i < 40; i++ {
		fe.Dispatch(workload.Request{ID: uint64(i), Session: fe.sid("s1"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
		fe.Dispatch(workload.Request{ID: uint64(100 + i), Session: fe.sid("s2"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	// Mid-window delta: s1's routes change, s2 is removed entirely.
	err := fe.applyDelta(deltaByID{
		FromGen: 1, Gen: 2,
		Set:    byID{"s1": {{BackendID: "b", UnitID: "u", Weight: 1}}},
		Remove: []string{"s2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		fe.Dispatch(workload.Request{ID: uint64(200 + i), Session: fe.sid("s1"), Arrival: clock.Now(), Deadline: clock.Now() + time.Hour})
	}
	clock.RunUntil(clock.Now() + 5*time.Second)
	rates := fe.observedByID()
	if got := rates["s1"] * 5; got < 49.9 || got > 50.1 {
		t.Fatalf("s1 window count = %.1f, want 50 (carried across Set)", got)
	}
	if got := rates["s2"] * 5; got < 39.9 || got > 40.1 {
		t.Fatalf("s2 window count = %.1f, want 40 (residual after Remove)", got)
	}
}

// TestApplyDeltaPreservesUntouchedWRR: a session the delta does not mention
// keeps its dispatch state, so its smooth-WRR replica split continues
// exactly where it left off. s1 and s3 share one route list; shareAmong
// puts them on one pick sequence, as an install does for a group large
// enough to pay for one, and each keeps its own place in it across the
// delta.
func TestApplyDeltaPreservesUntouchedWRR(t *testing.T) {
	_, _, fe, _ := setup(t, 2)
	split := []Route{
		{BackendID: "a", UnitID: "u", Weight: 3},
		{BackendID: "b", UnitID: "u", Weight: 1},
	}
	rt := byID{"s1": split, "s2": {{BackendID: "a", UnitID: "u", Weight: 1}}, "s3": split}
	if err := fe.setTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	before := fe.state("s1")
	shareAmong(pickHorizon, checkpointEvery, before, fe.state("s3"))
	counts := map[string]int{}
	for i := 0; i < 2; i++ { // mid-cycle: the sequence holds credit
		counts[fe.next(before).BackendID]++
	}
	seq, at := before.seq, before.at
	if seq.picks == nil || fe.state("s3").seq != seq || at != 2 || fe.state("s3").at != 0 {
		t.Fatalf("s1 at pick %d and s3 at pick %d of one shared sequence (%v); want 2 and 0",
			at, fe.state("s3").at, seq == fe.state("s3").seq)
	}
	err := fe.applyDelta(deltaByID{
		FromGen: 1, Gen: 2,
		Set: byID{"s2": {{BackendID: "b", UnitID: "u", Weight: 1}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := fe.state("s1")
	if after.seq != seq || after.at != at || fe.state("s3").seq != seq || fe.state("s3").at != 0 {
		t.Fatal("untouched sessions lost their places in their pick sequence to the delta")
	}
	for i := 0; i < 398; i++ {
		counts[fe.next(after).BackendID]++
	}
	if counts["a"] != 300 || counts["b"] != 100 {
		t.Fatalf("WRR counts after delta = %v, want a:300 b:100", counts)
	}
}

func TestApplyDeltaStaleGeneration(t *testing.T) {
	_, _, fe, _ := setup(t, 1)
	rt := byID{"s1": {{BackendID: "a", UnitID: "u", Weight: 1}}}
	if err := fe.setTableGen(rt, 5); err != nil {
		t.Fatal(err)
	}
	err := fe.applyDelta(deltaByID{
		FromGen: 4, Gen: 6,
		Set: byID{"s2": {{BackendID: "a", UnitID: "u", Weight: 1}}},
	})
	if !errors.Is(err, ErrStaleDelta) {
		t.Fatalf("stale delta error = %v, want ErrStaleDelta", err)
	}
	if fe.TableVersion() != 5 || len(fe.Sessions()) != 1 {
		t.Fatal("rejected delta mutated routing state")
	}
}

func TestApplyDeltaRejectsBadRoutes(t *testing.T) {
	_, _, fe, _ := setup(t, 1)
	rt := byID{"s1": {{BackendID: "a", UnitID: "u", Weight: 1}}}
	if err := fe.setTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	bad := []deltaByID{
		{FromGen: 1, Gen: 2, Set: byID{"s2": {{BackendID: "zz", UnitID: "u", Weight: 1}}}},
		{FromGen: 1, Gen: 2, Set: byID{"s2": {{BackendID: "a", UnitID: "u", Weight: 0}}}},
		{FromGen: 1, Gen: 2, Set: byID{"s2": {}}},
	}
	for i, d := range bad {
		if err := fe.applyDelta(d); err == nil {
			t.Errorf("case %d: invalid delta accepted", i)
		}
	}
	if fe.TableVersion() != 1 || len(fe.Sessions()) != 1 {
		t.Fatal("rejected delta mutated routing state")
	}
}

// TestApplyDeltaRejectsUnassignedHandles: a Set or Remove handle that names
// no session — 0, or one the session table never assigned — fails the
// delta before anything changes. A huge Set handle used to size the
// dispatch state to match.
func TestApplyDeltaRejectsUnassignedHandles(t *testing.T) {
	_, _, fe, _ := setup(t, 1)
	routes := []Route{{BackendID: "a", UnitID: "u", Weight: 1}}
	if err := fe.setTableGen(byID{"s1": routes}, 1); err != nil {
		t.Fatal(err)
	}
	s1, s2 := fe.sid("s1"), fe.sid("s2")
	unassigned := session.Handle(fe.names.Len())
	bad := []TableDelta{
		{Set: []SessionRoutes{{Session: s2, Routes: routes}, {Session: 0, Routes: routes}}},
		{Set: []SessionRoutes{{Session: s2, Routes: routes}, {Session: unassigned, Routes: routes}}},
		{Set: []SessionRoutes{{Session: s2, Routes: routes}, {Session: math.MaxUint32, Routes: routes}}},
		{Set: []SessionRoutes{{Session: s2, Routes: routes}}, Remove: []session.Handle{s1, 0}},
		{Set: []SessionRoutes{{Session: s2, Routes: routes}}, Remove: []session.Handle{s1, unassigned}},
	}
	for i, d := range bad {
		d.FromGen, d.Gen = 1, 2
		if err := fe.ApplyDelta(d); err == nil {
			t.Errorf("case %d: delta naming an unassigned handle accepted", i)
		}
	}
	if fe.TableVersion() != 1 || len(fe.sessions) != int(s1)+1 || !slices.Equal(fe.Sessions(), []string{"s1"}) {
		t.Fatalf("rejected delta mutated routing state: generation %d, %d states, sessions %v",
			fe.TableVersion(), len(fe.sessions), fe.Sessions())
	}
	// A handle the table assigned but no install has routed yet is valid in
	// either list.
	if err := fe.ApplyDelta(TableDelta{FromGen: 1, Gen: 2, Remove: []session.Handle{s2}}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDispatchDuringDelta interleaves a dispatch stream with a
// delta stream: every 40 dispatches the control plane flips s1's routes
// and churns a third session in and out, so dispatches keep landing on
// freshly swapped snapshots. The clock only runs once both streams end.
func TestConcurrentDispatchDuringDelta(t *testing.T) {
	clock, _, fe, _ := setup(t, 2)
	rt := byID{
		"s0": {{BackendID: "a", UnitID: "u", Weight: 1}},
		"s1": {{BackendID: "a", UnitID: "u", Weight: 1}},
	}
	if err := fe.setTableGen(rt, 1); err != nil {
		t.Fatal(err)
	}
	const (
		dispatches = 20000
		deltas     = 500
	)
	gen := uint64(1)
	for i := 0; i < dispatches; i++ {
		if j := i / (dispatches / deltas); i%(dispatches/deltas) == 0 {
			be := "a"
			if j%2 == 0 {
				be = "b"
			}
			d := deltaByID{
				FromGen: gen, Gen: gen + 1,
				Set: byID{
					"s1": {{BackendID: be, UnitID: "u", Weight: 1}},
					"s2": {{BackendID: "a", UnitID: "u", Weight: 1}},
				},
			}
			if j%3 == 0 {
				d.Set = byID{"s1": {{BackendID: be, UnitID: "u", Weight: 1}}}
				d.Remove = []string{"s2"}
			}
			if err := fe.applyDelta(d); err != nil {
				t.Fatal(err)
			}
			gen++
		}
		fe.Dispatch(workload.Request{
			ID: uint64(i), Session: fe.sid(fmt.Sprintf("s%d", i%2)),
			Arrival: clock.Now(), Deadline: clock.Now() + time.Hour,
		})
	}
	clock.Run()
	// Every dispatch was routed or counted: the two live sessions' window
	// counts must sum to all dispatched requests (none dropped: both target
	// sessions stay routable throughout).
	clock.RunUntil(clock.Now() + time.Second)
	rates := fe.observedByID()
	var total float64
	for _, r := range rates {
		total += r
	}
	if fe.Dispatches() != dispatches {
		t.Fatalf("dispatches = %d, want %d", fe.Dispatches(), dispatches)
	}
	if total <= 0 {
		t.Fatal("no observed traffic after interleaved deltas")
	}
}
