package backend

import "errors"

// Outcome classifies how a request left the system. OK means the response
// was delivered (possibly after its deadline — lateness is judged by the
// completion sink, which knows the deadline); every other outcome means
// the request was lost before producing a response. Distinguishing the
// loss reasons is what lets the control plane tell admission-control
// drops from reconfiguration races from genuine failures (§5).
type Outcome uint8

const (
	// OK: the response was delivered.
	OK Outcome = iota
	// DropDeadline: the drop policy shed the request because its deadline
	// could no longer be met (early or lazy drop, §4.3).
	DropDeadline
	// DropReconfig: the request was queued on a unit that a control-plane
	// reconfiguration removed before it executed.
	DropReconfig
	// DropOverload: the unit's bounded queue was full at enqueue time.
	DropOverload
	// DropUnroutable: the frontend had no route for the session.
	DropUnroutable
	// DropFailure: the request was lost to a backend failure — queued or
	// in flight on a node that crashed.
	DropFailure
	// DropAdmission: the frontend's admission control shed the request
	// before routing — its session's own token bucket was empty.
	DropAdmission
)

// Bad reports whether the outcome counts against SLO attainment.
func (o Outcome) Bad() bool { return o != OK }

// String names the outcome for traces and tables.
func (o Outcome) String() string {
	switch o {
	case OK:
		return "ok"
	case DropDeadline:
		return "deadline"
	case DropReconfig:
		return "reconfig"
	case DropOverload:
		return "overload"
	case DropUnroutable:
		return "unroutable"
	case DropFailure:
		return "failure"
	case DropAdmission:
		return "admission"
	default:
		return "unknown"
	}
}

// Sentinel errors returned by Enqueue, so the frontend can distinguish a
// reconfiguration race (retryable on another replica) from overload
// (shed it) from a dead node (retry elsewhere, count as failure if not).
var (
	// ErrUnitRemoved: the target unit does not exist on this backend —
	// a reconfiguration removed it while the dispatch was in flight.
	ErrUnitRemoved = errors.New("unit removed")
	// ErrQueueFull: the unit's bounded queue is at capacity.
	ErrQueueFull = errors.New("queue full")
	// ErrBackendDown: the backend has crashed and serves nothing.
	ErrBackendDown = errors.New("backend down")
)
