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
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nexus/internal/backend"
	"nexus/internal/ring"
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

// resolvedRoute is a Route with its backend pointer resolved at table-push
// time, so the per-request send path does not look the backend up by ID.
type resolvedRoute struct {
	Route
	be *backend.Backend
}

// sessionState is the per-session dispatch state: resolved routes, the
// smooth-WRR accumulator, and the rate counter. Collapsing these into one
// struct makes Dispatch a single map lookup per request, and holding the
// mutable parts per session shards dispatch state: concurrent Dispatch
// calls for different sessions touch disjoint cache lines and never
// contend. The count is atomic so a table mutation can carry it over while
// a dispatch is in flight; routes are written only when the state is
// created; the wrr accumulator is guarded by spin, a per-session CAS flag
// held for the handful of float ops one pick needs (uncontended it costs
// two uncontended atomic ops — there is no mutex anywhere on this path).
type sessionState struct {
	routes []resolvedRoute
	wrr    []float64
	spin   atomic.Uint32
	count  atomic.Uint64
}

// lock acquires the session's WRR guard. Contention only occurs between
// concurrent dispatchers of the same session, and the critical section is
// a short float scan, so spinning beats parking; Gosched keeps a stalled
// owner from starving its waiters.
func (st *sessionState) lock() {
	for i := 0; !st.spin.CompareAndSwap(0, 1); i++ {
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

func (st *sessionState) unlock() { st.spin.Store(0) }

// tableState is the immutable routing snapshot the dispatch path reads:
// the table, its resolved per-session dispatch state, and the control-plane
// generation it corresponds to. Mutations (SetTable, ApplyDelta,
// RemoveBackend) build a fresh snapshot and swap the pointer, so Dispatch
// never observes a half-applied update.
type tableState struct {
	table    RoutingTable
	sessions map[string]*sessionState
	gen      uint64
}

// Frontend dispatches requests to backends.
type Frontend struct {
	clock    *simclock.Clock
	backends map[string]*backend.Backend
	netDelay time.Duration
	// extraDelay models an injected network-delay spike on every hop.
	extraDelay time.Duration

	// state is the current routing snapshot; the dispatch hot path loads it
	// once per request and never takes a lock. Table mutations are
	// serialized by mu — a control-plane-rate lock only — and swap in a
	// fresh snapshot, so any number of concurrent Dispatch calls interleave
	// safely with pushes, deltas, and failure repairs.
	state atomic.Pointer[tableState]
	mu    sync.Mutex
	// tableVersion counts routing-table changes (control-plane pushes and
	// failure repairs), for telemetry.
	tableVersion atomic.Uint64
	// dispatches and retries count routed requests and retry re-sends over
	// the frontend's lifetime, for telemetry. Atomic: Dispatch may run on
	// many goroutines at once.
	dispatches atomic.Uint64
	retries    atomic.Uint64

	// ingress is the lock-free MPSC ring carrying picked (request, route)
	// pairs from Dispatch callers to the frontend→backend network hop, and
	// pumping is the CAS flag electing exactly one of them to drain it
	// (the hop schedules simulation-clock events, and the clock is
	// single-threaded). With one dispatcher the ring is strict FIFO and the
	// pump runs inline, so simulation behaviour is byte-identical to
	// calling send directly.
	ingress *ring.MPSC[pendingDispatch]
	pumping atomic.Uint32

	// onDrop observes requests the frontend loses, with the reason.
	onDrop DropFunc

	// tracer, when set, records Route (backend picked) and Enqueue (request
	// entered the target unit's queue after the network hop) span events.
	tracer *trace.Tracer

	// Rate observation for the control plane (guarded by mu). Live sessions
	// count in their sessionState; residual holds counts of sessions whose
	// routes were removed mid-window, so their traffic still shows in
	// ObservedRates.
	residual   map[string]uint64
	windowFrom time.Duration

	// sendPool recycles in-flight send state (and its bound delivery
	// callback) so the per-request network hop allocates nothing. It is
	// touched only by the elected pump owner and by delivery events on the
	// clock goroutine, so it needs no lock; New seeds it from a contiguous
	// arena so a fresh frontend reaches steady state without growing it.
	sendPool []*pendingSend
	// arenaHits/arenaGrows count sendPool reuses vs. fresh allocations, for
	// self-observability: a healthy steady state is all hits, and a growing
	// grow count means in-flight sends outrun the arena. Atomic only to be
	// race-detector-clean against a telemetry scrape; both are updated on
	// the pump/clock side.
	arenaHits  atomic.Uint64
	arenaGrows atomic.Uint64

	// Degraded-mode survival state (see degraded.go). All nil/zero when the
	// layer is off, so the hot path pays one nil check per feature.
	// retryBudget/retryBase are the retry budget (0 = no retries).
	retryBudget int
	retryBase   time.Duration
	// leaseTTL > 0 arms routing-table leases: lastPush (unix nanos of the
	// newest control-plane push, atomic because Dispatch reads it without
	// mu) ages against it, and expired tables either serve stale (counted)
	// or stop routing.
	leaseTTL    time.Duration
	serveStale  bool
	lastPush    atomic.Int64
	staleServed atomic.Uint64
	// breakers holds per-backend circuit state. The map is built once at
	// EnableBreakers (one breaker per known backend) and read-only after,
	// so concurrent dispatchers index it freely; each breaker's fields are
	// atomic because pick-side probes race with delivery-side outcomes.
	breakers           map[string]*breaker
	breakerThreshold   int32
	breakerCooloff     time.Duration
	breakerTransitions atomic.Uint64
	onBreaker          BreakerObserver
	// linkDown marks backends behind a severed frontend<->backend link
	// (data partition): alive from the scheduler's view, unreachable here.
	linkDown map[string]bool
	// admission holds per-session token buckets; reserve is the shared
	// priority pool. The map is read-only after setup; each bucket carries
	// its own CAS guard. admissionSheds counts DropAdmission outcomes.
	admission      map[string]*tokenBucket
	reserve        *tokenBucket
	admissionSheds atomic.Uint64
}

// pendingDispatch is one picked (request, route) pair queued on the
// ingress ring between a Dispatch caller and the network hop.
type pendingDispatch struct {
	req     workload.Request
	r       resolvedRoute
	attempt int
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
			f.tracer.Record(trace.Event{
				At: now, Kind: trace.Enqueue, ReqID: req.ID,
				Session: req.Session, Backend: r.BackendID, Unit: r.UnitID,
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
				f.retries.Add(1)
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

// ingressCap bounds the in-flight picked-but-not-yet-sent requests on the
// ingress ring; a full ring makes the pushing dispatcher drain it itself.
const ingressCap = 1024

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
		ingress:  ring.NewMPSC[pendingDispatch](ingressCap),
	}
	f.state.Store(&tableState{table: RoutingTable{}, sessions: make(map[string]*sessionState)})
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

// SetTracer attaches a span tracer; nil detaches it.
func (f *Frontend) SetTracer(t *trace.Tracer) { f.tracer = t }

// SetExtraDelay injects a network-delay spike of d on top of the base
// dispatch latency for every subsequent hop; d ≤ 0 clears it.
func (f *Frontend) SetExtraDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	f.extraDelay = d
}

// SetTable installs a new routing table (control plane push, §5).
func (f *Frontend) SetTable(rt RoutingTable) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.setTableLocked(rt, f.state.Load().gen+1)
}

// SetTableGen installs a full routing table stamped with the control
// plane's generation: the initial push and the resync path of delta
// routing, after which subsequent deltas from that generation apply.
func (f *Frontend) SetTableGen(rt RoutingTable, gen uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.setTableLocked(rt, gen)
}

func (f *Frontend) setTableLocked(rt RoutingTable, gen uint64) error {
	if err := rt.Validate(); err != nil {
		return err
	}
	for _, routes := range rt {
		for _, r := range routes {
			if _, ok := f.backends[r.BackendID]; !ok {
				return fmt.Errorf("frontend: route to unknown backend %s", r.BackendID)
			}
		}
	}
	cur := f.state.Load()
	sessions := make(map[string]*sessionState, len(rt))
	resolved := routeMemo{}
	for sid, routes := range rt {
		st := f.newSession(resolved, routes)
		// Rate counts survive table pushes: the count is keyed by session,
		// not by its routes.
		if old, ok := cur.sessions[sid]; ok {
			st.count.Store(old.count.Load())
		} else if n, ok := f.residual[sid]; ok {
			st.count.Store(n)
			delete(f.residual, sid)
		}
		sessions[sid] = st
	}
	// Sessions dropped from the table keep their window counts.
	for sid, st := range cur.sessions {
		if _, ok := sessions[sid]; !ok {
			if n := st.count.Load(); n > 0 {
				f.residual[sid] += n
			}
		}
	}
	f.state.Store(&tableState{table: rt, sessions: sessions, gen: gen})
	f.tableVersion.Add(1)
	f.renewLeaseLocked()
	return nil
}

// ApplyDelta applies an incremental routing update on top of the current
// table. Sessions untouched by the delta keep their dispatch state —
// including the smooth-WRR accumulator, so an unchanged session's replica
// split is not perturbed by other sessions' route changes. Changed sessions
// get fresh state with their rate count carried over; removed sessions move
// their count to the residual window. A generation mismatch (missed push,
// or local route repair after a backend death) returns ErrStaleDelta
// without touching anything; the caller resyncs with SetTableGen.
func (f *Frontend) ApplyDelta(d TableDelta) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.state.Load()
	if cur.gen != d.FromGen {
		return fmt.Errorf("%w (have generation %d, delta from %d)", ErrStaleDelta, cur.gen, d.FromGen)
	}
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
	table := make(RoutingTable, len(cur.table)+len(d.Set))
	for sid, routes := range cur.table {
		table[sid] = routes
	}
	sessions := make(map[string]*sessionState, len(cur.sessions)+len(d.Set))
	for sid, st := range cur.sessions {
		sessions[sid] = st
	}
	for _, sid := range d.Remove {
		delete(table, sid)
		if st, ok := sessions[sid]; ok {
			if n := st.count.Load(); n > 0 {
				f.residual[sid] += n
			}
			delete(sessions, sid)
		}
	}
	resolved := routeMemo{}
	for sid, routes := range d.Set {
		table[sid] = routes
		st := f.newSession(resolved, routes)
		if old, ok := sessions[sid]; ok {
			st.count.Store(old.count.Load())
		} else if n, ok := f.residual[sid]; ok {
			st.count.Store(n)
			delete(f.residual, sid)
		}
		sessions[sid] = st
	}
	f.state.Store(&tableState{table: table, sessions: sessions, gen: d.Gen})
	f.tableVersion.Add(1)
	f.renewLeaseLocked()
	return nil
}

// Generation returns the control-plane generation of the routing state the
// frontend currently holds. Local route repairs bump it off the control
// plane's sequence, which is what makes the next delta detectably stale.
func (f *Frontend) Generation() uint64 { return f.state.Load().gen }

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
// one install call (SetTable, ApplyDelta or RemoveBackend). It lives only
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
			resolved[i] = resolvedRoute{Route: r, be: f.backends[r.BackendID]}
		}
		memo[key] = resolved
	}
	return &sessionState{routes: resolved, wrr: make([]float64, len(routes))}
}

// Dispatch routes a request to a backend. Requests for sessions without a
// route are reported unroutable; token-bucket admission (when configured)
// sheds before routing with DropAdmission; an expired route lease either
// serves stale or stops routing.
//
// Dispatch is lock-free and safe for any number of concurrent callers:
// routing reads an atomic snapshot, counters are atomic, per-session WRR
// state is CAS-guarded, and the hand-off to the network hop goes through
// the ingress ring. Concurrent callers may not overlap with the clock
// goroutine executing events (the simulation clock is single-threaded);
// join dispatchers before running the clock, as live mode's pump tick
// does. With concurrent dispatchers, onDrop and the tracer must be
// concurrency-safe too.
func (f *Frontend) Dispatch(req workload.Request) {
	if f.admission != nil && !f.admit(req.Session) {
		f.admissionSheds.Add(1)
		f.drop(req, backend.DropAdmission)
		return
	}
	st, ok := f.state.Load().sessions[req.Session]
	if !ok || len(st.routes) == 0 {
		f.drop(req, backend.DropUnroutable)
		return
	}
	if f.leaseTTL > 0 && f.clock.Now()-time.Duration(f.lastPush.Load()) > f.leaseTTL {
		if !f.serveStale {
			// Lease expired and stale serving is off: the table can no
			// longer be trusted, so the request is unroutable.
			f.drop(req, backend.DropUnroutable)
			return
		}
		f.staleServed.Add(1)
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
	st.count.Add(1)
	f.dispatches.Add(1)
	if f.tracer != nil {
		f.tracer.Record(trace.Event{
			At: f.clock.Now(), Kind: trace.Route, ReqID: req.ID,
			Session: req.Session, Backend: r.BackendID, Unit: r.UnitID,
		})
	}
	f.enqueueHop(req, r)
}

// enqueueHop hands a picked request to the frontend→backend network hop
// through the lock-free ingress ring, then pumps. A full ring means the
// pump owner is behind; the pusher helps by pumping (or spinning until the
// owner frees a slot).
func (f *Frontend) enqueueHop(req workload.Request, r resolvedRoute) {
	pd := pendingDispatch{req: req, r: r, attempt: 1}
	for i := 0; !f.ingress.Push(pd); i++ {
		f.pump()
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
	f.pump()
}

// pump elects this goroutine (CAS on pumping) to drain the ingress ring
// into send, which schedules the delivery event on the simulation clock.
// Losing the election is fine — the winner drains everything published —
// but the loser re-checks after the owner releases the flag so an item
// pushed during the hand-off window is never stranded.
func (f *Frontend) pump() {
	for {
		if !f.pumping.CompareAndSwap(0, 1) {
			return
		}
		for {
			pd, ok := f.ingress.Pop()
			if !ok {
				break
			}
			f.send(pd.req, pd.r, pd.attempt)
		}
		f.pumping.Store(0)
		if f.ingress.Empty() {
			return
		}
	}
}

// send delivers req to route r after the network delay, classifying any
// enqueue failure. attempt is 1 on the first try; deliver consults the
// retry budget on failure.
func (f *Frontend) send(req workload.Request, r resolvedRoute, attempt int) {
	var p *pendingSend
	if n := len(f.sendPool); n > 0 {
		p = f.sendPool[n-1]
		f.sendPool = f.sendPool[:n-1]
		f.arenaHits.Add(1)
	} else {
		p = &pendingSend{f: f}
		p.fire = p.deliver
		f.arenaGrows.Add(1)
	}
	p.req, p.r, p.attempt = req, r, attempt
	f.clock.After(f.netDelay+f.extraDelay, p.fire)
}

// altRoute returns the session's first route to a reachable backend other
// than the one that just failed: alive, not behind a cut data link, and
// (when breakers are on) not breaker-open.
func (f *Frontend) altRoute(session, exclude string) (resolvedRoute, bool) {
	if st, ok := f.state.Load().sessions[session]; ok {
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
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.state.Load()
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
				if n := st.count.Load(); n > 0 {
					f.residual[sid] += n
				}
				delete(sessions, sid)
			}
		} else {
			repaired[sid] = keep
			fresh := f.newSession(resolved, keep)
			if st != nil {
				fresh.count.Store(st.count.Load())
			}
			sessions[sid] = fresh
		}
	}
	if repaired != nil {
		f.state.Store(&tableState{table: repaired, sessions: sessions, gen: cur.gen + 1})
		f.tableVersion.Add(1)
	}
	return affected
}

// TableVersion returns how many times the routing table has changed
// (control-plane pushes plus failure repairs).
func (f *Frontend) TableVersion() uint64 { return f.tableVersion.Load() }

// Dispatches returns how many requests this frontend has routed (excludes
// unroutable admission drops, which never reached a backend).
func (f *Frontend) Dispatches() uint64 { return f.dispatches.Load() }

// Retries returns how many re-sends the retry budget made after a
// dispatch hit a dead backend or a reconfiguration race.
func (f *Frontend) Retries() uint64 { return f.retries.Load() }

// IngressDepth approximates the ingress ring's current occupancy, for
// self-observability gauges. Racy by nature; see ring.MPSC.Len.
func (f *Frontend) IngressDepth() int { return f.ingress.Len() }

// IngressCap returns the ingress ring's capacity.
func (f *Frontend) IngressCap() int { return f.ingress.Cap() }

// ArenaStats returns the send-arena reuse counters: pool hits (recycled
// send state) and grows (fresh allocations after the arena ran dry).
func (f *Frontend) ArenaStats() (hits, grows uint64) {
	return f.arenaHits.Load(), f.arenaGrows.Load()
}

// pick implements smooth weighted round-robin, which spreads a session's
// requests across its replicas proportionally and deterministically. The
// accumulator scan runs under the session's CAS guard so concurrent
// dispatchers of one session stay correct; the pick sequence itself is
// unchanged from the unguarded version.
func (st *sessionState) pick() resolvedRoute {
	st.lock()
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
	r := st.routes[best]
	st.unlock()
	return r
}

// ObservedRates returns each session's request rate (req/s) since the last
// call, then resets the window. This feeds epoch scheduling ("load
// statistics from the runtime", §5).
func (f *Frontend) ObservedRates() map[string]float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.state.Load()
	elapsed := (f.clock.Now() - f.windowFrom).Seconds()
	rates := make(map[string]float64, len(cur.sessions)+len(f.residual))
	for sid, st := range cur.sessions {
		if n := st.count.Swap(0); n > 0 && elapsed > 0 {
			rates[sid] = float64(n) / elapsed
		}
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
	table := f.state.Load().table
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
	table := f.state.Load().table
	out := make(RoutingTable, len(table))
	for sid, routes := range table {
		out[sid] = append([]Route(nil), routes...)
	}
	return out
}
