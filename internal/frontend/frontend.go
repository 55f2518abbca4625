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
	"slices"
	"sort"
	"time"

	"nexus/internal/backend"
	"nexus/internal/session"
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

// RoutingTable holds each session's routes, indexed by session handle; a
// nil entry is a session without routes. Sessions may share one []Route
// (the control plane gives every member of a prefix-batched unit the same
// slice), and a frontend checks and resolves each shared list once per
// install. That relies on an invariant every publisher keeps: a route
// slice, once installed, is never mutated; a change installs a new slice.
type RoutingTable [][]Route

// SessionRoutes is one session's entry in a TableDelta.
type SessionRoutes struct {
	Session session.Handle
	Routes  []Route
}

// TableDelta is an incremental routing update, and the only way routes
// enter a frontend: the control plane sends only the sessions whose routes
// changed since the generation it last pushed (every session, onto the
// empty generation-0 table, for the first install). FromGen names the
// generation the delta applies on top of; a frontend holding any other
// generation rejects it with ErrStaleDelta.
type TableDelta struct {
	FromGen uint64
	Gen     uint64
	// Set installs (or replaces) the routes of each listed session.
	Set []SessionRoutes
	// Remove deletes each listed session's routes (applied before Set).
	Remove []session.Handle
}

// ErrStaleDelta reports a generation mismatch between a delta and the
// frontend's routing state. The control plane is the frontend's only
// writer and pushes every generation to every frontend, so it never sees
// this error unless that contract breaks.
var ErrStaleDelta = errors.New("frontend: delta generation mismatch")

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

// sessionState is the per-session dispatch state: the session's routes and
// its place in their smooth-WRR pick sequence, and the rate counter.
// Collapsing these into one struct, indexed by session handle, makes
// Dispatch one slice index per request. A nil seq means the session is
// unroutable; the count survives route changes, since it counts the
// session's traffic, not its routes'.
type sessionState struct {
	seq   *pickSeq
	at    int // picks taken from a shared seq since install
	count uint64
}

// route installs seq as the session's routes at the start of its pick
// sequence (a zeroed accumulator); nil makes the session unroutable.
func (st *sessionState) route(seq *pickSeq) {
	st.seq, st.at = seq, 0
}

// own moves the session off its shared sequence onto an accumulator of its
// own at the same place: a copy of the sequence's last checkpoint at or
// before that place, then a replay of the recorded picks since with the
// float operations pick made for them, in the same order, so the two are
// bit-identical. Leaving allocates the new pickSeq and its accumulator and
// replays fewer than checkpointEvery picks.
func (st *sessionState) own() *pickSeq {
	shared := st.seq
	routes := shared.routes
	seq := &pickSeq{routes: routes, wrr: make([]float64, len(routes))}
	state := seq.wrr
	j := st.at / shared.every
	copy(state, shared.checkpoint(j))
	for _, best := range shared.picks[j*shared.every : st.at] {
		var total float64
		for i := range routes {
			state[i] += routes[i].Weight
			total += routes[i].Weight
		}
		state[best] -= total
	}
	st.seq, st.at = seq, 0
	return seq
}

// pickHorizon is the most picks a shared sequence records: 8 KB of route
// indexes, allocated once at install so a pick never grows it. A session
// that passes its sequence's horizon continues on an accumulator of its
// own. checkpointEvery is how many picks apart the sequence keeps a copy of
// its accumulator, which bounds what a leaving session replays.
const (
	pickHorizon     = 4096
	checkpointEvery = 256
)

// pickSeq is a resolved route list and its smooth-WRR pick state. An
// accumulator zeroed at install, with no route barred, is a pure function
// of the route list and the number of picks since install, so a large
// group of sessions installed with one list in one install reads one
// shared sequence: picks[k] is the route of every such session's k-th
// pick. Whichever session is furthest ahead extends it. wrr[:n] (n routes)
// is the accumulator after len(picks) picks, and wrr[n*(1+j):][:n] is
// checkpoint j, the accumulator after j*every picks. A pickSeq without a
// picks buffer is one session's private accumulator, wrr[:n]: for a list
// too few sessions hold to pay for a sequence (sharesPay), or after a
// breaker barred one of the session's routes or it passed the horizon
// (cap(picks)).
type pickSeq struct {
	routes []resolvedRoute
	wrr    []float64
	picks  []uint16 // nil for a private accumulator
	every  int      // picks between checkpoints
}

// newSharedSeq returns an empty shared sequence over routes with room for
// horizon picks and a checkpoint every every picks (checkpoint 0 is the
// zeroed accumulator).
func newSharedSeq(routes []resolvedRoute, horizon, every int) *pickSeq {
	n := len(routes)
	return &pickSeq{routes: routes, wrr: make([]float64, n*(2+horizon/every)),
		picks: make([]uint16, 0, horizon), every: every}
}

// sharesPay reports whether holders sessions on one list of n routes share
// a pick sequence: only when its buffers (2 B a pick, plus the frontier
// accumulator and the checkpoints) cost no more than the accumulators,
// 8 B a route, that the holders would otherwise own, and its route indexes
// fit a uint16.
func sharesPay(holders, n int) bool {
	seqBytes := 2*pickHorizon + 8*n*(2+pickHorizon/checkpointEvery)
	return n <= math.MaxUint16+1 && seqBytes <= 8*holders*n
}

// checkpoint returns checkpoint j of a shared sequence.
func (s *pickSeq) checkpoint(j int) []float64 {
	n := len(s.routes)
	return s.wrr[n*(1+j) : n*(2+j)]
}

// record appends pick i to a shared sequence whose accumulator has just
// taken it, and checkpoints the accumulator every every picks.
func (s *pickSeq) record(i int) {
	s.picks = append(s.picks, uint16(i))
	if len(s.picks)%s.every == 0 {
		copy(s.checkpoint(len(s.picks)/s.every), s.wrr)
	}
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

	// names is the deployment's session table, for the string APIs.
	names *session.Table
	// sessions is the dispatch state by session handle, and gen the
	// control-plane generation of the routes it holds. Installs never write
	// a RoutingTable: it may be shared with other frontend replicas and
	// the scheduler's last published table.
	sessions []sessionState
	gen      uint64
	// dispatches and retries count routed requests and retry re-sends over
	// the frontend's lifetime, for telemetry.
	dispatches uint64
	retries    uint64

	// onDrop observes requests the frontend loses, with the reason.
	onDrop DropFunc

	// tracer, when set, records Route (backend picked) and Enqueue (request
	// entered the target unit's queue after the network hop) span events.
	tracer *trace.Tracer

	// windowFrom starts the rate window the sessions' counts cover.
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
	// breakers holds per-backend circuit state (nil = breakers off); a
	// backend's breaker is created on its first dispatch failure.
	breakers           map[string]*breaker
	barred             []bool // the pick's per-route scratch
	breakerThreshold   int
	breakerCooloff     time.Duration
	breakerTransitions uint64
	onBreaker          BreakerObserver
	// linkDown marks backends behind a severed frontend<->backend link
	// (data partition): alive from the scheduler's view, unreachable here.
	linkDown map[string]bool
	// admission holds token buckets by session handle (nil = no policy).
	// admissionSheds counts DropAdmission outcomes.
	admission      []*tokenBucket
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
				Session: req.Session, Backend: r.backendH, Unit: r.unitH,
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

// New creates a frontend over the given backends whose routes and requests
// name sessions by their handles in names (nil = a table of its own).
// netDelay < 0 uses the default; 0 is allowed (ideal network).
func New(clock *simclock.Clock, backends map[string]*backend.Backend, names *session.Table,
	netDelay time.Duration, onDrop DropFunc) *Frontend {
	if netDelay < 0 {
		netDelay = DefaultNetDelay
	}
	if names == nil {
		names = session.NewTable()
	}
	f := &Frontend{
		clock:    clock,
		backends: backends,
		names:    names,
		netDelay: netDelay,
		onDrop:   onDrop,
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

// ApplyDelta applies an incremental routing update on top of the current
// table; it is the only way routes enter a frontend. Sessions in d.Remove
// lose their routes, sessions in d.Set get fresh dispatch state, and every
// other session keeps its state, including its place in its smooth-WRR
// pick sequence, so an unchanged session's replica split is not perturbed
// by other sessions' route changes. Rate counts survive either way. A
// generation mismatch returns ErrStaleDelta, and an invalid delta (a bad
// route list, or a handle the session table never assigned) an error, both
// without touching anything.
func (f *Frontend) ApplyDelta(d TableDelta) error {
	if f.gen != d.FromGen {
		return fmt.Errorf("%w (have generation %d, delta from %d)", ErrStaleDelta, f.gen, d.FromGen)
	}
	memo := routeMemo{}
	top := -1 // highest handle in d.Set, so the state grows once per install
	for _, e := range d.Set {
		if err := f.checkHandle(e.Session); err != nil {
			return err
		}
		if err := f.resolve(memo, e.Session, e.Routes); err != nil {
			return err
		}
		top = max(top, int(e.Session))
	}
	for _, h := range d.Remove {
		if err := f.checkHandle(h); err != nil {
			return err
		}
	}
	for _, h := range d.Remove {
		if int(h) < len(f.sessions) {
			f.sessions[h].route(nil)
		}
	}
	if top >= 0 {
		f.sessions = session.Fit(f.sessions, session.Handle(top))
	}
	for _, e := range d.Set {
		f.sessions[e.Session].route(memo[routeListOf(e.Routes)].share())
	}
	f.gen = d.Gen
	f.RenewRouteLease()
	return nil
}

// checkHandle rejects a delta handle that names no session: 0, or one the
// session table never assigned (which would also size the dispatch state
// by an arbitrary number).
func (f *Frontend) checkHandle(h session.Handle) error {
	if h == 0 || int(h) >= f.names.Len() {
		return fmt.Errorf("frontend: delta names session handle %d, which the session table never assigned", h)
	}
	return nil
}

// routeList identifies a []Route by its backing array and length: two
// slices with the same key hold the same routes, as long as both stay
// reachable (so the address cannot be reused) and unmutated.
type routeList struct {
	first *Route
	n     int
}

// routeListOf keys a non-empty route list.
func routeListOf(routes []Route) routeList {
	return routeList{&routes[0], len(routes)}
}

// routeMemo holds each distinct route list one install call sees, with
// how many of the call's sessions hold it. The map lives only for that
// call, while the delta it reads keeps every key's slice alive; the
// resolved lists and pick sequences it holds outlive it, in the sessions
// installed with them.
type routeMemo map[routeList]*memoEntry

type memoEntry struct {
	routes  []resolvedRoute
	holders int
	seq     *pickSeq // the shared sequence, once built
}

// share returns the pick state one of the entry's sessions is installed
// with: the list's shared sequence when its holders are enough to pay for
// one (sharesPay), otherwise a zeroed accumulator of the session's own.
func (m *memoEntry) share() *pickSeq {
	if !sharesPay(m.holders, len(m.routes)) {
		return &pickSeq{routes: m.routes, wrr: make([]float64, len(m.routes))}
	}
	if m.seq == nil {
		m.seq = newSharedSeq(m.routes, pickHorizon, checkpointEvery)
	}
	return m.seq
}

// resolve records a session's routes in the memo. Each distinct list is
// checked and resolved once per install, and sessions sharing one list
// share its resolved slice, which is read-only once built. A list must be
// non-empty, and every route must name a known backend and a unit with a
// positive, finite weight (NaN and ±Inf would silently corrupt the
// smooth-WRR accumulator).
func (f *Frontend) resolve(memo routeMemo, h session.Handle, routes []Route) error {
	if len(routes) == 0 {
		return fmt.Errorf("frontend: session %s has no routes", f.names.ID(h))
	}
	key := routeListOf(routes)
	if m, ok := memo[key]; ok {
		m.holders++
		return nil
	}
	resolved := make([]resolvedRoute, len(routes))
	for i, r := range routes {
		if math.IsNaN(r.Weight) || math.IsInf(r.Weight, 0) || r.Weight <= 0 {
			return fmt.Errorf("frontend: session %s route to %s has weight %v", f.names.ID(h), r.BackendID, r.Weight)
		}
		if r.BackendID == "" || r.UnitID == "" {
			return fmt.Errorf("frontend: session %s has incomplete route", f.names.ID(h))
		}
		be, ok := f.backends[r.BackendID]
		if !ok {
			return fmt.Errorf("frontend: route to unknown backend %s", r.BackendID)
		}
		resolved[i] = resolvedRoute{Route: r, be: be,
			backendH: f.tracer.Name(r.BackendID), unitH: f.tracer.Name(r.UnitID)}
	}
	memo[key] = &memoEntry{routes: resolved, holders: 1}
	return nil
}

// Dispatch routes a request to a backend. Requests for sessions without a
// route are reported unroutable; token-bucket admission (when configured)
// sheds before routing with DropAdmission; an expired route lease either
// serves stale or stops routing. A routed request reaches its backend
// after the network delay.
func (f *Frontend) Dispatch(req workload.Request) {
	h := req.Session
	if f.admission != nil && !f.admit(h) {
		f.admissionSheds++
		f.drop(req, backend.DropAdmission)
		return
	}
	if int(h) >= len(f.sessions) || f.sessions[h].seq == nil {
		f.drop(req, backend.DropUnroutable)
		return
	}
	st := &f.sessions[h]
	if f.leaseTTL > 0 && f.clock.Now()-f.lastPush > f.leaseTTL {
		if !f.serveStale {
			// Lease expired and stale serving is off: the table can no
			// longer be trusted, so the request is unroutable.
			f.drop(req, backend.DropUnroutable)
			return
		}
		f.staleServed++
	}
	i := f.pick(st)
	if i < 0 {
		// Every replica's breaker is open: fail fast instead of burning a
		// network hop on a known-bad target.
		f.drop(req, backend.DropFailure)
		return
	}
	r := &st.seq.routes[i]
	st.count++
	f.dispatches++
	if f.tracer != nil {
		f.tracer.Put(trace.Span{
			At: f.clock.Now(), Kind: trace.RouteName, Req: req.ID,
			Session: h, Backend: r.backendH, Unit: r.unitH,
		})
	}
	f.send(req, *r, 1)
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
func (f *Frontend) altRoute(h session.Handle, exclude string) (resolvedRoute, bool) {
	if int(h) < len(f.sessions) && f.sessions[h].seq != nil {
		for _, r := range f.sessions[h].seq.routes {
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

// TableVersion returns the control-plane generation of the routes the
// frontend holds. The control plane numbers its pushes 1, 2, ... and
// delivers each to every frontend, so this is also the install count.
func (f *Frontend) TableVersion() uint64 { return f.gen }

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

// pick is smooth weighted round-robin over the session's routes, which
// spreads its requests across replicas proportionally and
// deterministically. With breakers on, routes whose breaker is open are
// skipped. A cut data link is deliberately NOT consulted: the frontend has
// no oracle for link state and must discover a partition the way a real
// one does, through failed dispatches that trip the breaker. Skipped
// routes neither accumulate credit nor count in the rotation total, so a
// recovered replica rejoins without a burst of banked credit, and while no
// breaker is open the pick is plain smooth WRR: a session on a shared
// sequence reads its next pick there, and leaves it for an accumulator of
// its own only when a breaker bars one of its routes or it passes the
// horizon. Returns the picked route's index, or -1 when no replica is
// currently allowed.
func (f *Frontend) pick(st *sessionState) int {
	seq := st.seq
	routes := seq.routes
	// Breakers decide which routes they bar before the loop, so the loop
	// makes no calls: one there would cost every pick its registers.
	var barred []bool
	if f.breakers != nil {
		barred = f.barred[:0]
		for i := range routes {
			barred = append(barred, !f.routeAllowed(routes[i].BackendID))
		}
		f.barred = barred
	}
	if seq.picks != nil {
		switch {
		case st.at == cap(seq.picks) || slices.Contains(barred, true):
			seq = st.own()
		case st.at < len(seq.picks):
			best := int(seq.picks[st.at])
			st.at++
			if barred != nil {
				f.markProbe(routes[best].BackendID)
			}
			return best
		}
		// Otherwise the session is at the frontier: its pick extends the
		// sequence.
	}
	state := seq.wrr[:len(routes)]
	var total, top float64 // top is state[best]
	best := -1
	for i := range routes {
		if barred != nil && barred[i] {
			continue
		}
		w := routes[i].Weight
		state[i] += w
		total += w
		if best < 0 || state[i] > top {
			best, top = i, state[i]
		}
	}
	if best >= 0 {
		state[best] -= total
		if barred != nil {
			f.markProbe(routes[best].BackendID)
		}
	}
	if seq.picks != nil {
		seq.record(best)
		st.at++
	}
	return best
}

// AddObservedRates adds each session's request rate (req/s) since the last
// call into rates, indexed by session handle, then resets the window. It
// grows rates only as far as the highest handle with traffic, so several
// frontends merge into one buffer that the caller reuses. This feeds epoch
// scheduling ("load statistics from the runtime", §5).
func (f *Frontend) AddObservedRates(rates []float64) []float64 {
	elapsed := (f.clock.Now() - f.windowFrom).Seconds()
	for h := range f.sessions {
		st := &f.sessions[h]
		if st.count > 0 && elapsed > 0 {
			rates = session.Fit(rates, session.Handle(h))
			rates[h] += float64(st.count) / elapsed
		}
		st.count = 0
	}
	f.windowFrom = f.clock.Now()
	return rates
}

// Sessions returns the IDs of the sessions currently routable, sorted.
func (f *Frontend) Sessions() []string {
	out := []string{}
	for h := range f.sessions {
		if f.sessions[h].seq != nil {
			out = append(out, f.names.ID(session.Handle(h)))
		}
	}
	sort.Strings(out)
	return out
}

// TableSnapshot returns a deep copy of the current routing table, for
// tests and tools that compare routing state across runs.
func (f *Frontend) TableSnapshot() RoutingTable {
	out := make(RoutingTable, len(f.sessions))
	for h := range f.sessions {
		if seq := f.sessions[h].seq; seq != nil {
			for _, r := range seq.routes {
				out[h] = append(out[h], r.Route)
			}
		}
	}
	return out
}
