// Package faults is a deterministic, seeded fault-injection engine for a
// simulated Nexus cluster. A Script of timed fault events — permanent
// crashes, transient crashes with restart, straggler slowdowns,
// network-delay spikes, control-plane outages, asymmetric network
// partitions, and traffic surges — is scheduled against a running
// deployment on the simulation clock, so a chaos experiment is exactly as
// reproducible as a fault-free one: same seed, same script, same event
// sequence, byte-equal results at any test parallelism.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"nexus/internal/simclock"
)

// Kind is the fault type of one event.
type Kind int

const (
	// Crash kills a backend. Duration 0 is a permanent crash; Duration > 0
	// restarts the node that much later (transient failure).
	Crash Kind = iota
	// Straggler multiplies a backend GPU's execution time by Factor for
	// Duration (0 = until the end of the run).
	Straggler
	// NetDelay adds Delay to every frontend dispatch hop for Duration
	// (0 = permanent: the delay is pinned until explicitly cleared).
	NetDelay
	// SchedulerOutage takes the global scheduler down for Duration (0 =
	// rest of the run): no epoch planning, no route pushes, no lease
	// monitoring. The data plane keeps serving on its last routing table.
	SchedulerOutage
	// Partition cuts one direction-pair of the network asymmetrically for
	// Duration (0 = rest of the run). Link selects which hop: ControlLink
	// severs scheduler<->backend (heartbeats are lost while the backend
	// still serves, exercising false-positive failure detection and
	// incarnation-checked reconciliation at heal time); DataLink severs
	// frontend<->backend (dispatches fail while the scheduler still sees a
	// healthy node, exercising retry budgets and circuit breakers).
	Partition
	// Surge multiplies a session's offered arrival rate by Factor for
	// Duration (0 = rest of the run). Session selects the target; empty
	// surges every session.
	Surge
	// Noop is never scripted: the injector records one Noop injection when
	// Schedule is called with an empty script, so chaos experiment logs
	// always reconcile with the scripts that produced them.
	Noop
)

// String names the kind for logs and tables.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Straggler:
		return "straggler"
	case NetDelay:
		return "netdelay"
	case SchedulerOutage:
		return "schedoutage"
	case Partition:
		return "partition"
	case Surge:
		return "surge"
	case Noop:
		return "noop"
	default:
		return "unknown"
	}
}

// Link selects which hop a Partition event severs.
type Link int

const (
	// ControlLink is the scheduler<->backend hop: heartbeats and control
	// RPCs are lost, the data plane is untouched.
	ControlLink Link = iota
	// DataLink is the frontend<->backend hop: dispatches to the backend
	// fail, heartbeats still flow.
	DataLink
)

// String names the link for logs.
func (l Link) String() string {
	switch l {
	case ControlLink:
		return "control"
	case DataLink:
		return "data"
	default:
		return "unknown"
	}
}

// Event is one scripted fault.
type Event struct {
	// At is when the fault fires, in virtual time from the start of the
	// run (including warmup).
	At   time.Duration
	Kind Kind
	// Backend targets a specific backend ID; empty picks one of the
	// backends in use at fire time, via the injector's seeded RNG.
	// Ignored by NetDelay, SchedulerOutage, and Surge.
	Backend string
	// Duration bounds the fault (see each Kind); 0 = permanent.
	Duration time.Duration
	// Factor is the Straggler slowdown multiplier (e.g. 4 = 4x slower) or
	// the Surge rate multiplier (e.g. 3 = 3x the offered rate).
	Factor float64
	// Delay is the NetDelay spike added per dispatch hop.
	Delay time.Duration
	// Link selects the severed hop for Partition events.
	Link Link
	// Session targets a Surge at one session; empty surges every session.
	Session string
}

// Script is a set of fault events.
type Script []Event

// Validate rejects malformed scripts before anything is scheduled.
func (s Script) Validate() error {
	for i, e := range s {
		if e.At < 0 {
			return fmt.Errorf("faults: event %d fires at negative time %v", i, e.At)
		}
		if e.Duration < 0 {
			return fmt.Errorf("faults: event %d has negative duration %v", i, e.Duration)
		}
		switch e.Kind {
		case Crash, SchedulerOutage:
		case Straggler:
			if e.Factor <= 1 {
				return fmt.Errorf("faults: straggler event %d needs factor > 1, got %v", i, e.Factor)
			}
		case NetDelay:
			if e.Delay <= 0 {
				return fmt.Errorf("faults: netdelay event %d needs a positive delay, got %v", i, e.Delay)
			}
		case Partition:
			if e.Link != ControlLink && e.Link != DataLink {
				return fmt.Errorf("faults: partition event %d has unknown link %d", i, int(e.Link))
			}
		case Surge:
			if e.Factor <= 0 {
				return fmt.Errorf("faults: surge event %d needs factor > 0, got %v", i, e.Factor)
			}
		default:
			return fmt.Errorf("faults: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Target is the fault surface of a running deployment
// (cluster.Deployment implements it).
type Target interface {
	// BackendIDs returns the in-use backend IDs, sorted.
	BackendIDs() []string
	// CrashBackend kills a live backend; false if it is unknown or dead.
	CrashBackend(id string) bool
	// RestartBackend revives a dead backend; false if unknown or alive.
	RestartBackend(id string) bool
	// SlowBackend sets a backend GPU's slowdown factor (≤1 clears it).
	SlowBackend(id string, factor float64) bool
	// SetExtraNetDelay adds d to every dispatch hop (≤0 clears it).
	SetExtraNetDelay(d time.Duration)
	// SetSchedulerOutage takes the global scheduler down (true) or brings
	// it back up (false, triggering recovery); false when the transition
	// was not applicable (already in that state).
	SetSchedulerOutage(down bool) bool
	// CutLink severs (cut) or heals one directional link pair to a
	// backend; false when the backend is unknown or the link was already
	// in that state.
	CutLink(link Link, backendID string, cut bool) bool
	// SetRateMultiplier scales a session's offered arrival rate (session
	// "" scales every session; factor 1 restores nominal). False when the
	// target cannot modulate its workload.
	SetRateMultiplier(session string, factor float64) bool
}

// Injection records one fired fault for the experiment log.
type Injection struct {
	At      time.Duration
	Kind    Kind
	Backend string // resolved target ("" for non-backend faults)
	Applied bool   // false when the fault could not be applied
	// Note explains an unapplied injection ("no live backends", "target
	// rejected the fault", "empty script"), so experiment logs reconcile
	// with their scripts instead of silently dropping events.
	Note string
}

// Injector schedules fault scripts against a target on the sim clock.
type Injector struct {
	clock  *simclock.Clock
	target Target
	rng    *rand.Rand
	log    []Injection
	// netUntil tracks the furthest end of any active bounded NetDelay
	// window, so overlapping spikes do not clear each other early.
	netUntil time.Duration
	// netPinned marks an active permanent (Duration 0) NetDelay spike: the
	// delay stays applied until ClearNetDelay, no matter how many earlier
	// bounded windows expire after it fired.
	netPinned bool
}

// New creates an injector. The seed drives random target selection only;
// scripts with explicit backend IDs are seed-independent.
func New(clock *simclock.Clock, target Target, seed int64) *Injector {
	return &Injector{clock: clock, target: target, rng: rand.New(rand.NewSource(seed))}
}

// Schedule validates a script and arms every event on the clock. Call
// before (or during) the run; events in the past of the clock fire on the
// next clock step. An empty script arms nothing but records one Noop
// injection, so a log that should have N entries never silently has none.
func (in *Injector) Schedule(script Script) error {
	if err := script.Validate(); err != nil {
		return err
	}
	if len(script) == 0 {
		in.log = append(in.log, Injection{
			At: in.clock.Now(), Kind: Noop, Applied: false, Note: "empty script",
		})
		return nil
	}
	for _, e := range script {
		e := e
		in.clock.At(e.At, func() { in.fire(e) })
	}
	return nil
}

// Log returns the injections fired so far, in firing order.
func (in *Injector) Log() []Injection {
	return append([]Injection(nil), in.log...)
}

// ClearNetDelay explicitly clears any injected network delay, including a
// pinned permanent spike.
func (in *Injector) ClearNetDelay() {
	in.netPinned = false
	in.netUntil = 0
	in.target.SetExtraNetDelay(0)
}

// record appends one injection to the log.
func (in *Injector) record(at time.Duration, kind Kind, backend string, applied bool, note string) {
	in.log = append(in.log, Injection{At: at, Kind: kind, Backend: backend, Applied: applied, Note: note})
}

// fire applies one event at its scheduled time.
func (in *Injector) fire(e Event) {
	now := in.clock.Now()
	switch e.Kind {
	case Crash:
		id, ok := in.resolve(e.Backend)
		applied := ok && in.target.CrashBackend(id)
		in.record(now, e.Kind, id, applied, in.resolveNote(ok, applied))
		if applied && e.Duration > 0 {
			in.clock.At(now+e.Duration, func() {
				in.target.RestartBackend(id)
			})
		}
	case Straggler:
		id, ok := in.resolve(e.Backend)
		applied := ok && in.target.SlowBackend(id, e.Factor)
		in.record(now, e.Kind, id, applied, in.resolveNote(ok, applied))
		if applied && e.Duration > 0 {
			in.clock.At(now+e.Duration, func() {
				in.target.SlowBackend(id, 1)
			})
		}
	case NetDelay:
		in.target.SetExtraNetDelay(e.Delay)
		in.record(now, e.Kind, "", true, "")
		if e.Duration == 0 {
			// Permanent spike: pin the delay so the expiry of any earlier
			// bounded window cannot clear it.
			in.netPinned = true
			return
		}
		until := now + e.Duration
		if until > in.netUntil {
			in.netUntil = until
		}
		in.clock.At(until, func() {
			if !in.netPinned && in.clock.Now() >= in.netUntil {
				in.target.SetExtraNetDelay(0)
			}
		})
	case SchedulerOutage:
		applied := in.target.SetSchedulerOutage(true)
		in.record(now, e.Kind, "", applied, in.resolveNote(true, applied))
		if applied && e.Duration > 0 {
			in.clock.At(now+e.Duration, func() {
				in.target.SetSchedulerOutage(false)
			})
		}
	case Partition:
		id, ok := in.resolve(e.Backend)
		applied := ok && in.target.CutLink(e.Link, id, true)
		in.record(now, e.Kind, id, applied, in.resolveNote(ok, applied))
		if applied && e.Duration > 0 {
			in.clock.At(now+e.Duration, func() {
				in.target.CutLink(e.Link, id, false)
			})
		}
	case Surge:
		applied := in.target.SetRateMultiplier(e.Session, e.Factor)
		in.record(now, e.Kind, "", applied, in.resolveNote(true, applied))
		if applied && e.Duration > 0 {
			in.clock.At(now+e.Duration, func() {
				in.target.SetRateMultiplier(e.Session, 1)
			})
		}
	}
}

// resolveNote explains an unapplied backend-targeted injection.
func (in *Injector) resolveNote(resolved, applied bool) string {
	switch {
	case applied:
		return ""
	case !resolved:
		return "no live backends"
	default:
		return "target rejected the fault"
	}
}

// resolve turns an event's backend field into a concrete target: the named
// backend, or a seeded-random pick over the sorted in-use set.
func (in *Injector) resolve(explicit string) (string, bool) {
	if explicit != "" {
		return explicit, true
	}
	ids := in.target.BackendIDs()
	if len(ids) == 0 {
		return "", false
	}
	sort.Strings(ids) // defensive: determinism must not rely on the target
	return ids[in.rng.Intn(len(ids))], true
}
