// Package frontend implements the Nexus data-plane frontend (§5): it holds
// the routing table published by the global scheduler, dispatches each
// request to a backend hosting its session (weighted by the plan's rate
// shares), and maintains the per-session request-rate statistics the
// control plane uses for epoch scheduling.
package frontend

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"nexus/internal/backend"
	"nexus/internal/simclock"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// Route is one backend placement of a session.
type Route struct {
	BackendID string
	UnitID    string
	Weight    float64 // proportional share of the session's traffic
}

// RoutingTable maps session IDs to their routes. Sessions may share one
// []Route (the control plane gives every member of a prefix-batched unit
// the same slice), and a frontend resolves each shared list once per
// install. That relies on an invariant every publisher keeps: a route
// slice, once installed, is never mutated; a change installs a new slice.
type RoutingTable map[string][]Route

// Validate checks weights: every route must carry a positive, finite
// weight (NaN and ±Inf would silently corrupt the smooth-WRR accumulator)
// and name both a backend and a unit.
func (rt RoutingTable) Validate() error {
	for sid, routes := range rt {
		if len(routes) == 0 {
			return fmt.Errorf("frontend: session %s has no routes", sid)
		}
		for _, r := range routes {
			if math.IsNaN(r.Weight) || math.IsInf(r.Weight, 0) || r.Weight <= 0 {
				return fmt.Errorf("frontend: session %s route to %s has weight %v", sid, r.BackendID, r.Weight)
			}
			if r.BackendID == "" || r.UnitID == "" {
				return fmt.Errorf("frontend: session %s has incomplete route", sid)
			}
		}
	}
	return nil
}

// TableDelta is an incremental routing update: the control plane sends only
// the sessions whose routes changed since the generation it last pushed,
// instead of replacing the whole table. FromGen names the generation the
// delta applies on top of; a frontend holding any other generation (it
// missed a push, or repaired routes locally after a backend death) rejects
// the delta with ErrStaleDelta so the control plane falls back to a full
// SetTableGen resync.
type TableDelta struct {
	FromGen uint64
	Gen     uint64
	// Set installs (or replaces) the routes of each listed session.
	Set map[string][]Route
	// Remove deletes each listed session's routes (applied before Set).
	Remove []string
}

// ErrStaleDelta reports a generation mismatch between a delta and the
// frontend's routing state; the sender must full-resync.
var ErrStaleDelta = errors.New("frontend: delta generation mismatch, full resync required")

// DropFunc observes every request the frontend loses, with the reason:
// DropUnroutable (no route for the session, or route lease expired),
// DropOverload (target queue full), DropReconfig (unit vanished in a
// reconfiguration race, retry exhausted), DropFailure (target backend
// dead or unreachable, retry exhausted) or DropAdmission (shed by
// token-bucket admission control before routing).
type DropFunc func(req workload.Request, reason backend.Outcome)

// resolvedRoute is a Route with its backend pointer and its trace handles
// resolved at table-push time, so the per-request send path looks nothing
// up by ID.
type resolvedRoute struct {
	Route
	be              *backend.Backend
	backendH, unitH trace.Name
}

// sessionState is the per-session dispatch state: resolved routes, the
// smooth-WRR accumulator, and the rate counter. Collapsing these into one
// struct makes Dispatch a single map lookup per request. Routes are written
// only when the state is created.
type sessionState struct {
	routes []resolvedRoute
	wrr    []float64
	count  uint64
}

// tableState is the routing snapshot the dispatch path reads: the table,
// its resolved per-session dispatch state, and the control-plane generation
// it corresponds to. Mutations (SetTableGen, ApplyDelta, RemoveBackend) build
// a fresh snapshot and swap the pointer: the RoutingTable may be shared
// with other frontend replicas and the scheduler's last published table, so
// it is never written in place.
type tableState struct {
	table    RoutingTable
	sessions map[string]*sessionState
	gen      uint64
}

// Frontend dispatches requests to backends. Like the rest of a deployment
// it runs on the simulation-clock goroutine: Dispatch, the control-plane
// pushes, and the delivery events all execute there, so nothing on the
// request path takes a lock.
type Frontend struct {
	clock    *simclock.Clock
	backends map[string]*backend.Backend
	netDelay time.Duration
	// extraDelay models an injected network-delay spike on every hop.
	extraDelay time.Duration

	// state is the current routing snapshot.
	state *tableState
	// tableVersion counts routing-table changes (control-plane pushes and
	// failure repairs), for telemetry.
	tableVersion uint64
	// dispatches and retries count routed requests and retry re-sends over
	// the frontend's lifetime, for telemetry.
	dispatches uint64
	retries    uint64

	// onDrop observes requests the frontend loses, with the reason.
	onDrop DropFunc

	// tracer, when set, records Route (backend picked) and Enqueue (request
	// entered the target unit's queue after the network hop) span events.
	tracer *trace.Tracer

	// Rate observation for the control plane. Live sessions count in their
	// sessionState; residual holds counts of sessions whose routes were
	// removed mid-window, so their traffic still shows in ObservedRates.
	residual   map[string]uint64
	windowFrom time.Duration

	// sendPool recycles in-flight send state (and its bound delivery
	// callback) so the per-request network hop allocates nothing. New seeds
	// it from a contiguous arena so a fresh frontend reaches steady state
	// without growing it.
	sendPool []*pendingSend
	// arenaHits/arenaGrows count sendPool reuses vs. fresh allocations, for
	// self-observability: a healthy steady state is all hits, and a growing
	// grow count means in-flight sends outrun the arena.
	arenaHits  uint64
	arenaGrows uint64

	// Degraded-mode survival state (see degraded.go). All nil/zero when the
	// layer is off, so the hot path pays one nil check per feature.
	// retryBudget/retryBase are the retry budget (0 = no retries).
	retryBudget int
	retryBase   time.Duration
	// leaseTTL > 0 arms routing-table leases: lastPush (virtual time of the
	// newest control-plane push) ages against it, and expired tables either
	// serve stale (counted) or stop routing.
	leaseTTL    time.Duration
	serveStale  bool
	lastPush    time.Duration
	staleServed uint64
	// breakers holds per-backend circuit state, one breaker per known
	// backend, built at EnableBreakers.
	breakers           map[string]*breaker
	breakerThreshold   int
	breakerCooloff     time.Duration
	breakerTransitions uint64
	onBreaker          BreakerObserver
	// linkDown marks backends behind a severed frontend<->backend link
	// (data partition): alive from the scheduler's view, unreachable here.
	linkDown map[string]bool
	// admission holds per-session token buckets; reserve is the shared
	// priority pool. admissionSheds counts DropAdmission outcomes.
	admission      map[string]*tokenBucket
	reserve        *tokenBucket
	admissionSheds uint64
}

// pendingSend is one request in flight across the frontend->backend network
// delay. Pooled on the frontend; deliver copies its fields out and releases
// the object before acting, so a nested retry may safely reuse it.
type pendingSend struct {
	f       *Frontend
	req     workload.Request
	r       resolvedRoute
	attempt int    // 1 on the first try
	fire    func() // bound deliver
}

func (p *pendingSend) deliver() {
	f, req, r, attempt := p.f, p.req, p.r, p.attempt
	p.req, p.r = workload.Request{}, resolvedRoute{}
	f.sendPool = append(f.sendPool, p)

	var err error
	switch {
	case r.be == nil:
		err = backend.ErrBackendDown
	case f.linkDown != nil && f.linkDown[r.BackendID]:
		// A severed frontend<->backend link looks exactly like a dead node
		// from this side: the dispatch is lost.
		err = backend.ErrBackendDown
	default:
		err = r.be.Enqueue(r.UnitID, req)
	}
	switch {
	case err == nil:
		if f.breakers != nil {
			f.breakerSuccess(r.BackendID)
		}
		if f.tracer != nil {
			now := f.clock.Now()
			f.tracer.Put(trace.Span{
				At: now, Kind: trace.EnqueueName, Req: req.ID,
				Session: f.tracer.Handle(req.Handle, req.Session), Backend: r.backendH, Unit: r.unitH,
				Dur: now - req.Arrival,
			})
		}
	case errors.Is(err, backend.ErrQueueFull):
		// Overload is the drop policy's job, not the retry path's:
		// bouncing the request to another replica would just smear the
		// hotspot. It is not a breaker signal either — the node is healthy.
		f.drop(req, backend.DropOverload)
	default:
		reason := backend.DropFailure
		if errors.Is(err, backend.ErrUnitRemoved) {
			reason = backend.DropReconfig
		}
		if f.breakers != nil {
			f.breakerFailure(r.BackendID)
		}
		// Retry budget: re-send to a surviving replica after
		// base<<(attempt-1), as long as the budget and the request's
		// deadline both have room. A zero wait re-sends inline.
		if attempt <= f.retryBudget {
			backoff := f.retryBase << (attempt - 1)
			if alt, ok := f.altRoute(req.Session, r.BackendID); ok &&
				req.Deadline-f.clock.Now() > backoff+f.netDelay+f.extraDelay {
				f.retries++
				next := attempt + 1
				if backoff == 0 {
					f.send(req, alt, next)
				} else {
					f.clock.After(backoff, func() { f.send(req, alt, next) })
				}
				return
			}
		}
		f.drop(req, reason)
	}
}

// DefaultNetDelay is the one-way frontend<->backend dispatch latency.
const DefaultNetDelay = 500 * time.Microsecond

// sendArenaSize is how many pendingSend objects New pre-allocates as one
// contiguous block. It caps the common in-flight count of a single
// network-delay window; past it the pool grows one object at a time.
const sendArenaSize = 64

// New creates a frontend over the given backends. netDelay < 0 uses the
// default; 0 is allowed (ideal network).
func New(clock *simclock.Clock, backends map[string]*backend.Backend, netDelay time.Duration,
	onDrop DropFunc) *Frontend {
	if netDelay < 0 {
		netDelay = DefaultNetDelay
	}
	f := &Frontend{
		clock:    clock,
		backends: backends,
		netDelay: netDelay,
		onDrop:   onDrop,
		residual: make(map[string]uint64),
		state:    &tableState{table: RoutingTable{}, sessions: make(map[string]*sessionState)},
	}
	// Request-callback arena: one block, bound callbacks included, so the
	// network hop never allocates while the in-flight window stays within
	// the arena.
	arena := make([]pendingSend, sendArenaSize)
	f.sendPool = make([]*pendingSend, 0, sendArenaSize)
	for i := range arena {
		p := &arena[i]
		p.f = f
		p.fire = p.deliver
		f.sendPool = append(f.sendPool, p)
	}
	return f
}

// NetDelay returns the configured one-way dispatch latency.
func (f *Frontend) NetDelay() time.Duration { return f.netDelay }

// SetTracer attaches a span tracer; nil detaches it. Routes resolve their
// trace handles when installed, so attach it before the first install.
func (f *Frontend) SetTracer(t *trace.Tracer) { f.tracer = t }

// SetExtraDelay injects a network-delay spike of d on top of the base
// dispatch latency for every subsequent hop; d ≤ 0 clears it.
func (f *Frontend) SetExtraDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	f.extraDelay = d
}

// SetTableGen installs a full routing table stamped with the control
// plane's generation: the first publish, and the resync of a frontend whose
// generation diverged. It is the delta that replaces every session, and it
// installs rt itself, so frontends given one table share it.
func (f *Frontend) SetTableGen(rt RoutingTable, gen uint64) error {
	return f.install(TableDelta{Gen: gen, Set: rt}, true)
}

// ApplyDelta applies an incremental routing update on top of the current
// table. A generation mismatch (missed push, or local route repair after a
// backend death) returns ErrStaleDelta without touching anything; the
// caller resyncs with SetTableGen.
func (f *Frontend) ApplyDelta(d TableDelta) error {
	if gen := f.state.gen; gen != d.FromGen {
		return fmt.Errorf("%w (have generation %d, delta from %d)", ErrStaleDelta, gen, d.FromGen)
	}
	return f.install(d, false)
}

// install is the one way control-plane routes reach the frontend. Sessions
// in d.Remove — every current session when replace is set — move their
// rate counts to the residual window; sessions in d.Set then get fresh
// dispatch state that keeps their count. Every other session keeps its
// dispatch state, including the smooth-WRR accumulator, so an unchanged
// session's replica split is not perturbed by other sessions' route
// changes. With replace, d.Set itself becomes the table.
func (f *Frontend) install(d TableDelta, replace bool) error {
	if err := RoutingTable(d.Set).Validate(); err != nil {
		return err
	}
	for _, routes := range d.Set {
		for _, r := range routes {
			if _, ok := f.backends[r.BackendID]; !ok {
				return fmt.Errorf("frontend: route to unknown backend %s", r.BackendID)
			}
		}
	}
	cur := f.state
	var table RoutingTable
	var sessions map[string]*sessionState
	if replace {
		table, sessions = d.Set, make(map[string]*sessionState, len(d.Set))
		for sid, st := range cur.sessions {
			if st.count > 0 {
				f.residual[sid] += st.count
			}
		}
	} else {
		table = make(RoutingTable, len(cur.table)+len(d.Set))
		for sid, routes := range cur.table {
			table[sid] = routes
		}
		sessions = make(map[string]*sessionState, len(cur.sessions)+len(d.Set))
		for sid, st := range cur.sessions {
			sessions[sid] = st
		}
		for _, sid := range d.Remove {
			delete(table, sid)
			if st, ok := sessions[sid]; ok {
				if st.count > 0 {
					f.residual[sid] += st.count
				}
				delete(sessions, sid)
			}
		}
		for sid, routes := range d.Set {
			table[sid] = routes
		}
	}
	resolved := routeMemo{}
	for sid, routes := range d.Set {
		st := f.newSession(resolved, routes)
		// Rate counts survive route changes: the count is keyed by session,
		// not by its routes.
		if old, ok := sessions[sid]; ok {
			st.count = old.count
		} else if n, ok := f.residual[sid]; ok {
			st.count = n
			delete(f.residual, sid)
		}
		sessions[sid] = st
	}
	f.state = &tableState{table: table, sessions: sessions, gen: d.Gen}
	f.tableVersion++
	f.RenewRouteLease()
	return nil
}

// Generation returns the control-plane generation of the routing state the
// frontend currently holds. Local route repairs bump it off the control
// plane's sequence, which is what makes the next delta detectably stale.
func (f *Frontend) Generation() uint64 { return f.state.gen }

// routeList identifies a []Route by its backing array and length: two
// slices with the same key hold the same routes, as long as both stay
// reachable (so the address cannot be reused) and unmutated.
type routeList struct {
	first *Route
	n     int
}

// routeListOf keys a non-empty route list; every installed list is
// non-empty (Validate rejects empty ones, and repairs delete them).
func routeListOf(routes []Route) routeList {
	return routeList{&routes[0], len(routes)}
}

// routeMemo holds the resolved form of each distinct route list seen by
// one install call (SetTableGen, ApplyDelta or RemoveBackend). It lives only
// for that call, while the table it reads keeps every key's slice alive.
type routeMemo map[routeList][]resolvedRoute

// newSession builds fresh dispatch state for a session routed by routes.
// Sessions sharing one route list share its resolved slice, which is
// read-only once built; the WRR accumulator and the rate count are always
// the session's own, so each session's pick sequence is exactly what a
// private copy would give. Callers have already validated that every
// target exists.
func (f *Frontend) newSession(memo routeMemo, routes []Route) *sessionState {
	key := routeListOf(routes)
	resolved, ok := memo[key]
	if !ok {
		resolved = make([]resolvedRoute, len(routes))
		for i, r := range routes {
			resolved[i] = resolvedRoute{Route: r, be: f.backends[r.BackendID],
				backendH: f.tracer.Name(r.BackendID), unitH: f.tracer.Name(r.UnitID)}
		}
		memo[key] = resolved
	}
	return &sessionState{routes: resolved, wrr: make([]float64, len(routes))}
}

// Dispatch routes a request to a backend. Requests for sessions without a
// route are reported unroutable; token-bucket admission (when configured)
// sheds before routing with DropAdmission; an expired route lease either
// serves stale or stops routing. A routed request reaches its backend
// after the network delay.
func (f *Frontend) Dispatch(req workload.Request) {
	if f.admission != nil && !f.admit(req.Session) {
		f.admissionSheds++
		f.drop(req, backend.DropAdmission)
		return
	}
	st, ok := f.state.sessions[req.Session]
	if !ok || len(st.routes) == 0 {
		f.drop(req, backend.DropUnroutable)
		return
	}
	if f.leaseTTL > 0 && f.clock.Now()-f.lastPush > f.leaseTTL {
		if !f.serveStale {
			// Lease expired and stale serving is off: the table can no
			// longer be trusted, so the request is unroutable.
			f.drop(req, backend.DropUnroutable)
			return
		}
		f.staleServed++
	}
	var r resolvedRoute
	if f.breakers != nil {
		var ok bool
		if r, ok = f.pickAvoiding(st); !ok {
			// Every replica's breaker is open: fail fast instead of
			// burning a network hop on a known-bad target.
			f.drop(req, backend.DropFailure)
			return
		}
	} else {
		r = st.pick()
	}
	st.count++
	f.dispatches++
	if f.tracer != nil {
		f.tracer.Put(trace.Span{
			At: f.clock.Now(), Kind: trace.RouteName, Req: req.ID,
			Session: f.tracer.Handle(req.Handle, req.Session), Backend: r.backendH, Unit: r.unitH,
		})
	}
	f.send(req, r, 1)
}

// send delivers req to route r after the network delay, classifying any
// enqueue failure. attempt is 1 on the first try; deliver consults the
// retry budget on failure.
func (f *Frontend) send(req workload.Request, r resolvedRoute, attempt int) {
	var p *pendingSend
	if n := len(f.sendPool); n > 0 {
		p = f.sendPool[n-1]
		f.sendPool = f.sendPool[:n-1]
		f.arenaHits++
	} else {
		p = &pendingSend{f: f}
		p.fire = p.deliver
		f.arenaGrows++
	}
	p.req, p.r, p.attempt = req, r, attempt
	f.clock.After(f.netDelay+f.extraDelay, p.fire)
}

// altRoute returns the session's first route to a reachable backend other
// than the one that just failed: alive, not behind a cut data link, and
// (when breakers are on) not breaker-open.
func (f *Frontend) altRoute(session, exclude string) (resolvedRoute, bool) {
	if st, ok := f.state.sessions[session]; ok {
		for _, r := range st.routes {
			if r.BackendID == exclude {
				continue
			}
			if r.be == nil || !r.be.Alive() {
				continue
			}
			if f.linkDown != nil && f.linkDown[r.BackendID] {
				continue
			}
			if f.breakers != nil {
				if !f.routeAllowed(r.BackendID) {
					continue
				}
				f.markProbe(r.BackendID)
			}
			return r, true
		}
	}
	return resolvedRoute{}, false
}

func (f *Frontend) drop(req workload.Request, reason backend.Outcome) {
	if f.onDrop != nil {
		f.onDrop(req, reason)
	}
}

// RemoveBackend repairs the routing table after a backend is declared
// dead: every route to it is deleted. The table object may be shared with
// other frontend replicas (each receives its own repair call), so the
// repair is copy-on-write. Smooth-WRR weights are proportional, which
// redistributes the dead replica's share across the survivors of each
// session automatically; the session's WRR accumulator is reset so stale
// credit cannot skew the new split. Sessions whose last replica died
// become unroutable until the control plane re-plans. Returns the number
// of sessions whose routes changed. A repair advances the generation off
// the control plane's sequence, so the next routing delta is rejected and
// the control plane resyncs in full.
func (f *Frontend) RemoveBackend(beID string) int {
	cur := f.state
	affected := 0
	var repaired RoutingTable
	sessions := cur.sessions
	// Sessions sharing a route list share its repaired list too, so a
	// backend death does not give each of them a private copy.
	kept := make(map[routeList][]Route)
	resolved := routeMemo{}
	for sid, routes := range cur.table {
		key := routeListOf(routes)
		keep, ok := kept[key]
		if !ok {
			keep = routes[:0:0]
			for _, r := range routes {
				if r.BackendID != beID {
					keep = append(keep, r)
				}
			}
			kept[key] = keep
		}
		if len(keep) == len(routes) {
			continue
		}
		if repaired == nil {
			repaired = make(RoutingTable, len(cur.table))
			for s, rs := range cur.table {
				repaired[s] = rs
			}
			sessions = make(map[string]*sessionState, len(cur.sessions))
			for s, st := range cur.sessions {
				sessions[s] = st
			}
		}
		affected++
		st := sessions[sid]
		if len(keep) == 0 {
			delete(repaired, sid)
			if st != nil {
				if st.count > 0 {
					f.residual[sid] += st.count
				}
				delete(sessions, sid)
			}
		} else {
			repaired[sid] = keep
			fresh := f.newSession(resolved, keep)
			if st != nil {
				fresh.count = st.count
			}
			sessions[sid] = fresh
		}
	}
	if repaired != nil {
		f.state = &tableState{table: repaired, sessions: sessions, gen: cur.gen + 1}
		f.tableVersion++
	}
	return affected
}

// TableVersion returns how many times the routing table has changed
// (control-plane pushes plus failure repairs).
func (f *Frontend) TableVersion() uint64 { return f.tableVersion }

// Dispatches returns how many requests this frontend has routed (excludes
// unroutable admission drops, which never reached a backend).
func (f *Frontend) Dispatches() uint64 { return f.dispatches }

// Retries returns how many re-sends the retry budget made after a
// dispatch hit a dead backend or a reconfiguration race.
func (f *Frontend) Retries() uint64 { return f.retries }

// ArenaStats returns the send-arena reuse counters: pool hits (recycled
// send state) and grows (fresh allocations after the arena ran dry).
func (f *Frontend) ArenaStats() (hits, grows uint64) {
	return f.arenaHits, f.arenaGrows
}

// pick implements smooth weighted round-robin, which spreads a session's
// requests across its replicas proportionally and deterministically.
func (st *sessionState) pick() resolvedRoute {
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

// ObservedRates returns each session's request rate (req/s) since the last
// call, then resets the window. This feeds epoch scheduling ("load
// statistics from the runtime", §5).
func (f *Frontend) ObservedRates() map[string]float64 {
	cur := f.state
	elapsed := (f.clock.Now() - f.windowFrom).Seconds()
	rates := make(map[string]float64, len(cur.sessions)+len(f.residual))
	for sid, st := range cur.sessions {
		if st.count > 0 && elapsed > 0 {
			rates[sid] = float64(st.count) / elapsed
		}
		st.count = 0
	}
	if elapsed > 0 {
		for sid, n := range f.residual {
			rates[sid] = float64(n) / elapsed
		}
	}
	f.residual = make(map[string]uint64)
	f.windowFrom = f.clock.Now()
	return rates
}

// Sessions returns the sessions currently routable, sorted.
func (f *Frontend) Sessions() []string {
	table := f.state.table
	out := make([]string, 0, len(table))
	for sid := range table {
		out = append(out, sid)
	}
	sort.Strings(out)
	return out
}

// TableSnapshot returns a deep copy of the current routing table, for
// tests and tools that compare routing state across runs.
func (f *Frontend) TableSnapshot() RoutingTable {
	table := f.state.table
	out := make(RoutingTable, len(table))
	for sid, routes := range table {
		out[sid] = append([]Route(nil), routes...)
	}
	return out
}
