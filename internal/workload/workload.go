// Package workload generates request arrival processes for the evaluation:
// uniform and Poisson arrivals (§7.1 "we sample inter-arrival time between
// frames uniformly", §7.4 "varying Poisson arrival rates"), Zipf-distributed
// popularity across streams (§7.3.1), and piecewise rate schedules for
// diurnal / bursty experiments (Figure 13, rush hour in Figure 12).
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"nexus/internal/session"
	"nexus/internal/simclock"
)

// Request is one inference request of a session: 32 bytes with no
// pointers, so queues of requests cost the garbage collector nothing. The
// session is a handle in the deployment's session table; its ID string is
// looked up only where it is shown.
type Request struct {
	ID       uint64
	Arrival  time.Duration  // virtual time the request entered the frontend
	Deadline time.Duration  // Arrival + session SLO
	Session  session.Handle // 0 = no session
}

// Process produces inter-arrival times.
type Process interface {
	// Interarrival returns the time until the next request, given the
	// current virtual time (processes may be time-varying).
	Interarrival(now time.Duration, rng *rand.Rand) time.Duration
}

// Uniform produces near-regular arrivals: inter-arrival times drawn
// uniformly from [0.5, 1.5]/rate, mean 1/rate.
type Uniform struct{ Rate float64 }

// Interarrival implements Process.
func (u Uniform) Interarrival(_ time.Duration, rng *rand.Rand) time.Duration {
	if u.Rate <= 0 {
		return time.Hour
	}
	frac := 0.5 + rng.Float64()
	return time.Duration(frac / u.Rate * float64(time.Second))
}

// Poisson produces memoryless arrivals with exponential inter-arrival times.
type Poisson struct{ Rate float64 }

// Interarrival implements Process.
func (p Poisson) Interarrival(_ time.Duration, rng *rand.Rand) time.Duration {
	if p.Rate <= 0 {
		return time.Hour
	}
	return time.Duration(rng.ExpFloat64() / p.Rate * float64(time.Second))
}

// Modulated is a Poisson process whose rate varies over time according to
// RateAt. It drives the Figure 13 workload swings.
type Modulated struct {
	RateAt func(time.Duration) float64
}

// Interarrival implements Process using the rate at the current instant.
// Rates are assumed piecewise-constant at the resolution of arrivals.
func (m Modulated) Interarrival(now time.Duration, rng *rand.Rand) time.Duration {
	r := m.RateAt(now)
	if r <= 0 {
		// Probe again shortly; the schedule may turn back on.
		return time.Second
	}
	return time.Duration(rng.ExpFloat64() / r * float64(time.Second))
}

// Generator emits the requests of one session into a sink.
type Generator struct {
	Session string
	SLO     time.Duration
	Proc    Process
	// Handle is stamped on every request (Request.Session); set it before
	// the clock reaches the first arrival.
	Handle session.Handle

	clock  *simclock.Clock
	rng    *rand.Rand
	sink   func(Request)
	until  time.Duration
	nextID uint64
	sent   uint64
	// mult scales the offered rate (0 or 1 = nominal): inter-arrival gaps
	// divide by it from the next arrival on. Fault injection uses it to
	// script traffic surges; the rng draw sequence is untouched, so a
	// surged run stays deterministic.
	mult float64
	// emitFn is g.emit bound once, so scheduling an arrival does not
	// allocate a closure per request.
	emitFn func()
}

// Start begins emitting requests for session until the given virtual time
// (inclusive of arrivals strictly before it). sink is called at each
// arrival instant.
func Start(clock *simclock.Clock, rng *rand.Rand, sessionID string, slo time.Duration,
	proc Process, until time.Duration, sink func(Request)) *Generator {
	if slo <= 0 {
		panic(fmt.Sprintf("workload: session %s has non-positive SLO", sessionID))
	}
	g := &Generator{
		Session: sessionID, SLO: slo, Proc: proc,
		clock: clock, rng: rng, sink: sink, until: until,
	}
	g.emitFn = g.emit
	g.schedule()
	return g
}

// Sent returns how many requests have been emitted.
func (g *Generator) Sent() uint64 { return g.sent }

// SetRateMultiplier scales the generator's offered rate from the next
// arrival on: factor 2 halves inter-arrival gaps, factor 1 (or 0) restores
// the nominal process. Negative factors are clamped to nominal.
func (g *Generator) SetRateMultiplier(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	g.mult = factor
}

func (g *Generator) schedule() {
	gap := g.Proc.Interarrival(g.clock.Now(), g.rng)
	if g.mult > 0 && g.mult != 1 {
		gap = time.Duration(float64(gap) / g.mult)
	}
	if gap < time.Microsecond {
		gap = time.Microsecond // forbid zero-gap infinite loops
	}
	at := g.clock.Now() + gap
	if at >= g.until {
		return
	}
	g.clock.At(at, g.emitFn)
}

func (g *Generator) emit() {
	req := Request{
		ID:       g.nextID,
		Arrival:  g.clock.Now(),
		Deadline: g.clock.Now() + g.SLO,
		Session:  g.Handle,
	}
	g.nextID++
	g.sent++
	g.sink(req)
	g.schedule()
}

// ZipfWeights returns n weights following a Zipf distribution with exponent
// s, normalized to sum to 1. Rank 0 is the most popular.
func ZipfWeights(n int, s float64) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = 1 / math.Pow(float64(i+1), s)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// SplitRate distributes a total request rate across n streams with Zipf(s)
// popularity.
func SplitRate(total float64, n int, s float64) []float64 {
	w := ZipfWeights(n, s)
	rates := make([]float64, n)
	for i := range w {
		rates[i] = total * w[i]
	}
	return rates
}

// Segment is one piece of a piecewise-constant rate schedule.
type Segment struct {
	Until time.Duration // segment applies to t < Until
	Rate  float64
}

// Schedule is a piecewise-constant rate function. Segments must be ordered
// by Until; times past the last segment use the last rate.
type Schedule []Segment

// RateAt returns the scheduled rate at time t.
func (s Schedule) RateAt(t time.Duration) float64 {
	for _, seg := range s {
		if t < seg.Until {
			return seg.Rate
		}
	}
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].Rate
}

// Validate checks segment ordering.
func (s Schedule) Validate() error {
	for i := 1; i < len(s); i++ {
		if s[i].Until <= s[i-1].Until {
			return fmt.Errorf("workload: schedule segment %d not increasing", i)
		}
	}
	for i, seg := range s {
		if seg.Rate < 0 {
			return fmt.Errorf("workload: schedule segment %d has negative rate", i)
		}
	}
	return nil
}

// Burst builds the Figure 13 style schedule: a base rate, a burst window
// [from, to) at burst rate, then back to base.
func Burst(base, burst float64, from, to time.Duration) Schedule {
	return Schedule{
		{Until: from, Rate: base},
		{Until: to, Rate: burst},
		{Until: to + 365*24*time.Hour, Rate: base},
	}
}
