// Degraded-mode survival layer: routing-table leases, per-backend circuit
// breakers with an exponential-backoff retry budget, priority-aware
// token-bucket admission control, and data-link partition awareness. Every
// feature is opt-in and nil/zero when off, so a deployment that never
// enables it runs the exact same instruction stream as before (goldens
// stay byte-identical).
//
// Threading: the pieces Dispatch touches (lease stamp, breaker state,
// admission buckets, shed/stale counters) are atomic or CAS-guarded, so
// they stay correct under concurrent dispatchers on the lock-free path.
// Configuration (EnableBreakers, SetAdmission, SetLinkDown, ...) and the
// delivery-side outcome hooks still run on the simulation-clock goroutine.
package frontend

import (
	"runtime"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------
// Routing-table leases.

// EnableRouteLease arms a TTL on the routing table: if no control-plane
// push (full table, delta, or explicit renewal) lands within ttl, the
// table is stale. With serveStale the frontend keeps routing on the stale
// table and counts every such dispatch; without it, stale dispatches are
// dropped unroutable — the "lease-expiry-without-repair" posture that
// collapses under a scheduler outage.
func (f *Frontend) EnableRouteLease(ttl time.Duration, serveStale bool) {
	f.leaseTTL = ttl
	f.serveStale = serveStale
	f.lastPush.Store(int64(f.clock.Now()))
}

// RenewRouteLease marks the routing table fresh without changing it: the
// control plane calls it on epochs whose delta was empty, so an idle but
// healthy scheduler keeps the lease alive.
func (f *Frontend) RenewRouteLease() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.renewLeaseLocked()
}

// renewLeaseLocked stamps the lease under mu. The clock read is guarded by
// the feature flag: with leases off nothing reads the clock here, and with
// them on every push site runs on the clock goroutine.
func (f *Frontend) renewLeaseLocked() {
	if f.leaseTTL > 0 {
		f.lastPush.Store(int64(f.clock.Now()))
	}
}

// RouteStaleness returns the age of the routing table: time since the last
// control-plane push or renewal (0 when leases are off).
func (f *Frontend) RouteStaleness() time.Duration {
	if f.leaseTTL <= 0 {
		return 0
	}
	return f.clock.Now() - time.Duration(f.lastPush.Load())
}

// LeaseExpired reports whether the routing table has outlived its TTL.
func (f *Frontend) LeaseExpired() bool {
	return f.leaseTTL > 0 && f.RouteStaleness() > f.leaseTTL
}

// StaleServed returns how many requests were routed on an expired lease.
func (f *Frontend) StaleServed() uint64 { return f.staleServed.Load() }

// ---------------------------------------------------------------------
// Per-backend circuit breakers.

// Breaker states. A breaker is created closed on a backend's first
// failure; threshold consecutive failures open it; after cooloff one probe
// is let through half-open, and its outcome closes or re-opens it.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerStateName names a breaker state for observers and telemetry.
func breakerStateName(s int32) string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is one backend's circuit state. All fields are atomic: the
// pick side (routeAllowed/markProbe, any dispatcher goroutine) races with
// the delivery side (breakerFailure/breakerSuccess, clock goroutine), and
// state changes go through CAS so each transition happens exactly once.
type breaker struct {
	state atomic.Int32
	fails atomic.Int32 // consecutive failures while closed
	until atomic.Int64 // virtual time an open breaker may probe (ns)
}

// BreakerObserver sees every breaker state transition, for the chaos
// timeline (audit plane).
type BreakerObserver func(at time.Duration, backendID, from, to string)

// EnableBreakers arms per-backend circuit breakers: threshold consecutive
// dispatch failures open a backend's breaker, routing around it until a
// half-open probe succeeds after cooloff. The breaker map is populated for
// every known backend up front and never mutated again, so the lock-free
// dispatch path reads it without coordination.
func (f *Frontend) EnableBreakers(threshold int, cooloff time.Duration) {
	if threshold < 1 {
		threshold = 1
	}
	f.breakers = make(map[string]*breaker, len(f.backends))
	for beID := range f.backends {
		f.breakers[beID] = &breaker{}
	}
	f.breakerThreshold = int32(threshold)
	f.breakerCooloff = cooloff
}

// SetBreakerObserver attaches a transition observer; nil detaches it.
func (f *Frontend) SetBreakerObserver(obs BreakerObserver) { f.onBreaker = obs }

// transition moves a breaker from one state to another with a CAS,
// counting and observing it. It reports whether this caller won the
// transition (racing dispatchers resolve to exactly one winner).
func (f *Frontend) transition(beID string, b *breaker, from, to int32) bool {
	if from == to || !b.state.CompareAndSwap(from, to) {
		return false
	}
	f.breakerTransitions.Add(1)
	if f.onBreaker != nil {
		f.onBreaker(f.clock.Now(), beID, breakerStateName(from), breakerStateName(to))
	}
	return true
}

// breakerFailure records a dispatch failure against a backend (delivery
// side, clock goroutine).
func (f *Frontend) breakerFailure(beID string) {
	b, ok := f.breakers[beID]
	if !ok {
		return
	}
	switch b.state.Load() {
	case breakerHalfOpen:
		// The probe failed: straight back to open for another cooloff.
		b.until.Store(int64(f.clock.Now() + f.breakerCooloff))
		f.transition(beID, b, breakerHalfOpen, breakerOpen)
	case breakerClosed:
		if b.fails.Add(1) >= f.breakerThreshold {
			b.until.Store(int64(f.clock.Now() + f.breakerCooloff))
			f.transition(beID, b, breakerClosed, breakerOpen)
		}
	}
}

// breakerSuccess records a successful enqueue on a backend (delivery side,
// clock goroutine).
func (f *Frontend) breakerSuccess(beID string) {
	b, ok := f.breakers[beID]
	if !ok {
		return
	}
	b.fails.Store(0)
	switch s := b.state.Load(); s {
	case breakerOpen, breakerHalfOpen:
		f.transition(beID, b, s, breakerClosed)
	}
}

// routeAllowed reports whether a backend may receive traffic right now:
// breaker closed, or open but past its cooloff (eligible for a probe).
// Half-open means a probe is already in flight, so keep avoiding it.
func (f *Frontend) routeAllowed(beID string) bool {
	b, ok := f.breakers[beID]
	if !ok {
		return true
	}
	switch b.state.Load() {
	case breakerClosed:
		return true
	case breakerOpen:
		return f.clock.Now() >= time.Duration(b.until.Load())
	default: // half-open
		return false
	}
}

// markProbe flips a cooled-off open breaker to half-open when its backend
// is actually picked — not merely considered — so exactly one probe is in
// flight and a pick that lands elsewhere doesn't wedge the breaker. The
// open→half-open CAS means racing dispatchers send exactly one probe's
// worth of transitions.
func (f *Frontend) markProbe(beID string) {
	if b, ok := f.breakers[beID]; ok && b.state.Load() == breakerOpen &&
		f.clock.Now() >= time.Duration(b.until.Load()) {
		f.transition(beID, b, breakerOpen, breakerHalfOpen)
	}
}

// pickAvoiding is smooth weighted round-robin restricted to routes whose
// breakers admit traffic. A cut data link is deliberately NOT consulted
// here: the frontend has no oracle for link state and must discover a
// partition the way a real one does — failed dispatches trip the breaker,
// which then routes around the backend. Skipped routes neither accumulate
// credit nor count in the rotation total, so a recovered replica rejoins
// without a burst of banked credit. Returns false when no replica is
// currently allowed.
func (f *Frontend) pickAvoiding(st *sessionState) (resolvedRoute, bool) {
	st.lock()
	defer st.unlock()
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

// BreakerTransitions returns the lifetime count of breaker state changes.
func (f *Frontend) BreakerTransitions() uint64 { return f.breakerTransitions.Load() }

// OpenBreakers returns how many backends are currently open or half-open
// (i.e. being routed around).
func (f *Frontend) OpenBreakers() int {
	n := 0
	for _, b := range f.breakers {
		if b.state.Load() != breakerClosed {
			n++
		}
	}
	return n
}

// ---------------------------------------------------------------------
// Retry budget.

// EnableRetry arms the retry budget: a dispatch that fails because its
// target crashed, lost the unit, or sits behind a cut link is re-sent to a
// surviving replica up to budget times, waiting base<<(attempt-1) before
// each re-send (base 0 re-sends at once), as long as the request's
// deadline still has room for the wait plus a network hop.
func (f *Frontend) EnableRetry(budget int, base time.Duration) {
	f.retryBudget = budget
	f.retryBase = base
}

// ---------------------------------------------------------------------
// Data-link partitions.

// SetLinkDown severs (down=true) or heals the frontend<->backend data
// link to one backend: dispatches to it fail as if the node were dead,
// while the scheduler — whose control link is separate — still sees its
// heartbeats. Reports whether the link state changed.
func (f *Frontend) SetLinkDown(beID string, down bool) bool {
	if f.linkDown == nil {
		if !down {
			return false
		}
		f.linkDown = make(map[string]bool)
	}
	if f.linkDown[beID] == down {
		return false
	}
	if down {
		f.linkDown[beID] = true
	} else {
		delete(f.linkDown, beID)
	}
	return true
}

// ---------------------------------------------------------------------
// Priority-aware admission control.

// AdmissionConfig is one session's token-bucket admission policy. Rate is
// the sustained admit rate (req/s) and Burst the bucket depth; Priority
// > 0 entitles the session to draw from the shared reserve (see
// SetAdmissionReserve) when its own bucket is empty, so overload sheds
// the lowest-value sessions first.
type AdmissionConfig struct {
	Rate     float64 `json:"rate"`
	Burst    float64 `json:"burst"`
	Priority int     `json:"priority"`
}

// tokenBucket refills by elapsed virtual time, which keeps admission
// decisions deterministic: same arrival sequence, same sheds. The spin
// guard shards admission contention per session the same way sessionState
// does for WRR: concurrent dispatchers for different sessions never touch
// the same bucket, and same-session races serialize on two atomic ops.
type tokenBucket struct {
	rate     float64
	burst    float64
	tokens   float64
	last     time.Duration
	priority int
	spin     atomic.Uint32
}

func (tb *tokenBucket) lock() {
	for i := 0; !tb.spin.CompareAndSwap(0, 1); i++ {
		if i%64 == 63 {
			runtime.Gosched()
		}
	}
}

func (tb *tokenBucket) unlock() { tb.spin.Store(0) }

func (tb *tokenBucket) refill(now time.Duration) {
	if now > tb.last {
		tb.tokens += tb.rate * (now - tb.last).Seconds()
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
}

// SetAdmission installs (or replaces) a session's admission policy. The
// bucket starts full. Call before the run starts, or from the clock
// goroutine: the bucket map is dispatch-path state.
func (f *Frontend) SetAdmission(session string, cfg AdmissionConfig) {
	if f.admission == nil {
		f.admission = make(map[string]*tokenBucket)
	}
	f.admission[session] = &tokenBucket{
		rate:     cfg.Rate,
		burst:    cfg.Burst,
		tokens:   cfg.Burst,
		last:     f.clock.Now(),
		priority: cfg.Priority,
	}
}

// SetAdmissionReserve installs the shared reserve bucket that priority
// sessions may draw from when their own bucket runs dry.
func (f *Frontend) SetAdmissionReserve(rate, burst float64) {
	f.reserve = &tokenBucket{rate: rate, burst: burst, tokens: burst, last: f.clock.Now()}
}

// admit charges one request against the session's bucket (or, for
// priority sessions, the shared reserve). Sessions without a policy are
// always admitted.
func (f *Frontend) admit(session string) bool {
	tb, ok := f.admission[session]
	if !ok {
		return true
	}
	now := f.clock.Now()
	tb.lock()
	tb.refill(now)
	if tb.tokens >= 1 {
		tb.tokens--
		tb.unlock()
		return true
	}
	tb.unlock()
	if tb.priority > 0 && f.reserve != nil {
		rb := f.reserve
		rb.lock()
		rb.refill(now)
		if rb.tokens >= 1 {
			rb.tokens--
			rb.unlock()
			return true
		}
		rb.unlock()
	}
	return false
}

// AdmissionSheds returns how many requests admission control dropped.
func (f *Frontend) AdmissionSheds() uint64 { return f.admissionSheds.Load() }
