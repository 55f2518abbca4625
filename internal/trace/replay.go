package trace

import "time"

// replay is one walk of an event stream, the representation every reader
// of spans shares: each request rebuilt from its Arrive to its Complete,
// each distinct GPU batch once, and the drops by cause.
type replay struct {
	arrived, completed, dropped int
	drops                       map[string]int
	// done holds every request that completed with its Arrive retained, in
	// completion order.
	done []*request
	// batches holds every distinct batch in the order its first member's
	// Execute appears.
	batches []*batch
	// last is the latest event time in the stream.
	last time.Duration
}

// request is one request's span. The stage times are the last of their
// kind seen since its Arrive, except route, which is the first.
type request struct {
	id                               uint64
	session                          string
	arrive, route, enqueue, execute  time.Duration
	hasRoute, hasEnqueue, hasExecute bool
	// batch is the batch of its last Execute, and execDur that event's Dur.
	batch   *batch
	execDur time.Duration
	// complete is its completion time and close its batch's close then.
	complete, close time.Duration
}

// batchKey identifies a batch: its members' Execute events share all four
// fields, and the incarnation keeps a restarted backend's batches apart
// from those of the instance before the crash.
type batchKey struct {
	backend, unit string
	start         time.Duration
	inc           uint32
}

// batch is one GPU batch.
type batch struct {
	batchKey
	// first is the index of the first member's Execute in the stream and
	// dur that event's Dur.
	first int
	dur   time.Duration
	// tracked is set by the first member whose request has a span; end is
	// the start plus that member's Dur.
	tracked bool
	end     time.Duration
	// close is the latest enqueue of a tracked member seen so far: the
	// moment the batch stopped filling.
	close time.Duration
	// reach is the latest end among its backend's tracked batches up to
	// it in start order (set by blame).
	reach time.Duration
}

// replayEvents walks events once. A request's span starts at its Arrive
// (a second Arrive of one ID starts it again) and ends at its Complete or
// Drop; events of a request without a span count only toward the totals
// and the batches.
func replayEvents(events []Event) *replay {
	r := &replay{drops: make(map[string]int)}
	live := make(map[uint64]*request)
	batches := make(map[batchKey]*batch)
	for i, e := range events {
		r.last = max(r.last, e.At)
		q := live[e.ReqID]
		switch e.Kind {
		case Arrive:
			r.arrived++
			live[e.ReqID] = &request{id: e.ReqID, session: e.Session, arrive: e.At}
		case Route:
			if q != nil && !q.hasRoute {
				q.route, q.hasRoute = e.At, true
			}
		case Enqueue:
			if q != nil {
				q.enqueue, q.hasEnqueue = e.At, true
			}
		case Execute:
			k := batchKey{e.Backend, e.Unit, e.At, e.Inc}
			b := batches[k]
			if b == nil {
				b = &batch{batchKey: k, first: i, dur: e.Dur}
				batches[k] = b
				r.batches = append(r.batches, b)
			}
			if q == nil {
				continue
			}
			q.execute, q.hasExecute = e.At, true
			q.batch, q.execDur = b, e.Dur
			if !b.tracked {
				b.tracked, b.end = true, e.At+e.Dur
			}
			if q.hasEnqueue {
				b.close = max(b.close, q.enqueue)
			}
		case Complete:
			r.completed++
			if q == nil {
				continue
			}
			q.complete = e.At
			if q.hasExecute {
				q.close = max(q.batch.close, q.enqueue)
			}
			r.done = append(r.done, q)
			delete(live, e.ReqID)
		case Drop:
			r.dropped++
			cause := e.Cause
			if cause == "" {
				cause = "unknown"
			}
			r.drops[cause]++
			delete(live, e.ReqID)
		}
	}
	return r
}
