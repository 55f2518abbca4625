// Degraded-mode survival layer: routing-table leases, per-backend circuit
// breakers with an exponential-backoff retry budget, per-session
// token-bucket admission control, and data-link partition awareness. Every
// feature is opt-in and nil/zero when off, and with all of them off a
// deployment's outputs stay byte-identical to a build without the layer.
package frontend

import (
	"time"

	"nexus/internal/session"
)

// ---------------------------------------------------------------------
// Routing-table leases.

// EnableRouteLease arms a TTL on the routing table: if no control-plane
// push (a delta or an explicit renewal) lands within ttl, the
// table is stale. With serveStale the frontend keeps routing on the stale
// table and counts every such dispatch; without it, stale dispatches are
// dropped unroutable — the "lease-expiry-without-repair" posture that
// collapses under a scheduler outage.
func (f *Frontend) EnableRouteLease(ttl time.Duration, serveStale bool) {
	f.leaseTTL = ttl
	f.serveStale = serveStale
	f.lastPush = f.clock.Now()
}

// RenewRouteLease marks the routing table fresh without changing it: the
// control plane calls it on epochs whose delta was empty, so an idle but
// healthy scheduler keeps the lease alive.
func (f *Frontend) RenewRouteLease() {
	if f.leaseTTL > 0 {
		f.lastPush = f.clock.Now()
	}
}

// RouteStaleness returns the age of the routing table: time since the last
// control-plane push or renewal (0 when leases are off).
func (f *Frontend) RouteStaleness() time.Duration {
	if f.leaseTTL <= 0 {
		return 0
	}
	return f.clock.Now() - f.lastPush
}

// StaleServed returns how many requests were routed on an expired lease.
func (f *Frontend) StaleServed() uint64 { return f.staleServed }

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
func breakerStateName(s int) string {
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

// breaker is one backend's circuit state.
type breaker struct {
	state int
	fails int           // consecutive failures while closed
	until time.Duration // virtual time an open breaker may probe
}

// BreakerObserver sees every breaker state transition, for the chaos
// timeline (audit plane).
type BreakerObserver func(at time.Duration, backendID, from, to string)

// EnableBreakers arms per-backend circuit breakers: threshold consecutive
// dispatch failures open a backend's breaker, routing around it until a
// half-open probe succeeds after cooloff.
func (f *Frontend) EnableBreakers(threshold int, cooloff time.Duration) {
	if threshold < 1 {
		threshold = 1
	}
	f.breakers = make(map[string]*breaker)
	f.breakerThreshold = threshold
	f.breakerCooloff = cooloff
}

// SetBreakerObserver attaches a transition observer; nil detaches it.
func (f *Frontend) SetBreakerObserver(obs BreakerObserver) { f.onBreaker = obs }

// transition moves a breaker to a new state, counting and observing it.
func (f *Frontend) transition(beID string, b *breaker, to int) {
	from := b.state
	b.state = to
	f.breakerTransitions++
	if f.onBreaker != nil {
		f.onBreaker(f.clock.Now(), beID, breakerStateName(from), breakerStateName(to))
	}
}

// breakerFailure records a dispatch failure against a backend, creating its
// breaker on the first one. Without breakers armed it does nothing.
func (f *Frontend) breakerFailure(beID string) {
	if f.breakers == nil {
		return
	}
	b, ok := f.breakers[beID]
	if !ok {
		b = &breaker{}
		f.breakers[beID] = b
	}
	switch b.state {
	case breakerHalfOpen:
		// The probe failed: straight back to open for another cooloff.
		b.until = f.clock.Now() + f.breakerCooloff
		f.transition(beID, b, breakerOpen)
	case breakerClosed:
		b.fails++
		if b.fails >= f.breakerThreshold {
			b.until = f.clock.Now() + f.breakerCooloff
			f.transition(beID, b, breakerOpen)
		}
	}
}

// breakerSuccess records a successful enqueue on a backend.
func (f *Frontend) breakerSuccess(beID string) {
	b, ok := f.breakers[beID]
	if !ok {
		return
	}
	b.fails = 0
	if b.state != breakerClosed {
		f.transition(beID, b, breakerClosed)
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
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		return f.clock.Now() >= b.until
	default: // half-open
		return false
	}
}

// markProbe flips a cooled-off open breaker to half-open when its backend
// is actually picked — not merely considered — so exactly one probe is in
// flight and a pick that lands elsewhere doesn't wedge the breaker.
func (f *Frontend) markProbe(beID string) {
	if b, ok := f.breakers[beID]; ok && b.state == breakerOpen && f.clock.Now() >= b.until {
		f.transition(beID, b, breakerHalfOpen)
	}
}

// BreakerTransitions returns the lifetime count of breaker state changes.
func (f *Frontend) BreakerTransitions() uint64 { return f.breakerTransitions }

// OpenBreakers returns how many backends are currently open or half-open
// (i.e. being routed around).
func (f *Frontend) OpenBreakers() int {
	n := 0
	for _, b := range f.breakers {
		if b.state != breakerClosed {
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
// Per-session admission control.

// AdmissionConfig is one session's token-bucket admission policy. Rate is
// the sustained admit rate (req/s) and Burst the bucket depth. Each
// session draws only from its own bucket, so a flood on one session is
// shed without touching another's admissions.
type AdmissionConfig struct {
	Rate  float64 `json:"rate"`
	Burst float64 `json:"burst"`
}

// tokenBucket refills by elapsed virtual time, which keeps admission
// decisions deterministic: same arrival sequence, same sheds.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Duration
}

// take refills the bucket to now and charges one token if one is there.
func (tb *tokenBucket) take(now time.Duration) bool {
	if now > tb.last {
		tb.tokens += tb.rate * (now - tb.last).Seconds()
		if tb.tokens > tb.burst {
			tb.tokens = tb.burst
		}
		tb.last = now
	}
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

// SetAdmission installs (or replaces) a session's admission policy. The
// bucket starts full.
func (f *Frontend) SetAdmission(sessionID string, cfg AdmissionConfig) {
	h := f.names.Intern(sessionID)
	f.admission = session.Fit(f.admission, h)
	f.admission[h] = &tokenBucket{rate: cfg.Rate, burst: cfg.Burst, tokens: cfg.Burst, last: f.clock.Now()}
}

// admit charges one request against the session's bucket. Sessions
// without a policy are always admitted.
func (f *Frontend) admit(h session.Handle) bool {
	if int(h) >= len(f.admission) || f.admission[h] == nil {
		return true
	}
	return f.admission[h].take(f.clock.Now())
}

// AdmissionSheds returns how many requests admission control dropped.
func (f *Frontend) AdmissionSheds() uint64 { return f.admissionSheds }
