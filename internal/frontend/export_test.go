package frontend

import (
	"slices"
	"sort"

	"nexus/internal/session"
)

// Accessors and adapters only the tests use. Tests name sessions by ID;
// these resolve the IDs through the frontend's session table.

// byID is a routing table keyed by session ID.
type byID map[string][]Route

// deltaByID is a TableDelta keyed by session ID.
type deltaByID struct {
	FromGen, Gen uint64
	Set          byID
	Remove       []string
}

// sid returns the handle of a session ID, assigning one if it is new.
func (f *Frontend) sid(id string) session.Handle { return f.names.Intern(id) }

// table returns routes as a RoutingTable, assigning handles in ID order.
func (f *Frontend) table(routes byID) RoutingTable {
	ids := make([]string, 0, len(routes))
	for id := range routes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var rt RoutingTable
	for _, id := range ids {
		h := f.sid(id)
		rt = session.Fit(rt, h)
		rt[h] = routes[id]
	}
	return rt
}

// SetTable replaces the routing table with the next generation's.
func (f *Frontend) SetTable(routes byID) error {
	return f.setTableGen(routes, f.gen+1)
}

// setTableGen replaces the routing table as the control plane does, with a
// delta from the held generation to gen: every session in routes is set
// and every other routed session removed.
func (f *Frontend) setTableGen(routes byID, gen uint64) error {
	d := deltaByID{FromGen: f.gen, Gen: gen, Set: routes}
	for _, id := range f.Sessions() {
		if _, ok := routes[id]; !ok {
			d.Remove = append(d.Remove, id)
		}
	}
	return f.applyDelta(d)
}

// applyDelta is ApplyDelta by session ID.
func (f *Frontend) applyDelta(d deltaByID) error {
	td := TableDelta{FromGen: d.FromGen, Gen: d.Gen}
	rt := f.table(d.Set)
	for h, routes := range rt {
		if routes != nil {
			td.Set = append(td.Set, SessionRoutes{Session: session.Handle(h), Routes: routes})
		}
	}
	for _, id := range d.Remove {
		td.Remove = append(td.Remove, f.sid(id))
	}
	return f.ApplyDelta(td)
}

// observedByID returns the observed rates (AddObservedRates) by session
// ID, sessions with traffic only.
func (f *Frontend) observedByID() map[string]float64 {
	out := make(map[string]float64)
	for h, r := range f.AddObservedRates(nil) {
		if r > 0 {
			out[f.names.ID(session.Handle(h))] = r
		}
	}
	return out
}

// snapshotByID returns TableSnapshot by session ID.
func (f *Frontend) snapshotByID() byID {
	out := byID{}
	for h, routes := range f.TableSnapshot() {
		if routes != nil {
			out[f.names.ID(session.Handle(h))] = routes
		}
	}
	return out
}

// state returns a session's dispatch state (nil if it has no routes). The
// pointer is into the frontend's state slice: an install that grows the
// slice leaves it stale.
func (f *Frontend) state(id string) *sessionState {
	h, ok := f.names.Lookup(id)
	if !ok || int(h) >= len(f.sessions) || f.sessions[h].seq == nil {
		return nil
	}
	return &f.sessions[h]
}

// accumulator returns a copy of the smooth-WRR accumulator the session's
// pick state stands for: its own, or the one it would materialize from its
// place in a shared sequence.
func (st *sessionState) accumulator() []float64 {
	if st.seq.picks == nil {
		return slices.Clone(st.seq.wrr)
	}
	cp := *st
	return cp.own().wrr
}

// shareAmong puts the sessions, which hold one resolved route list, on one
// fresh shared pick sequence with room for horizon picks and a checkpoint
// every every picks, as an install does for a group large enough to pay
// for one (sharesPay). Tests use it to share a sequence among a few
// sessions, and to shorten it so that a short script crosses its horizon.
func shareAmong(horizon, every int, sts ...*sessionState) {
	seq := newSharedSeq(sts[0].seq.routes, horizon, every)
	for _, st := range sts {
		st.seq, st.at = seq, 0
	}
}

// LeaseExpired reports whether the routing table has outlived its TTL.
func (f *Frontend) LeaseExpired() bool {
	return f.leaseTTL > 0 && f.RouteStaleness() > f.leaseTTL
}

// next is Frontend.pick for tests that run with breakers off, where a pick
// always succeeds.
func (f *Frontend) next(st *sessionState) resolvedRoute {
	return st.seq.routes[f.pick(st)]
}
