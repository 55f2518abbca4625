package cluster

import (
	"time"

	"nexus/internal/backend"
	"nexus/internal/session"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// startQuery begins one end-to-end query: dispatch the root stage and
// track the instance until every spawned stage resolves. Instances come
// from a free list that finishQuery refills, so a warm run allocates none.
func (d *Deployment) startQuery(ql *queryLoad, arrival workload.Request) {
	q := ql.spec.Query
	var qi *queryInstance
	if n := len(d.freeQueries); n > 0 {
		qi = d.freeQueries[n-1]
		d.freeQueries = d.freeQueries[:n-1]
	} else {
		qi = new(queryInstance)
	}
	*qi = queryInstance{queryName: q.Name, deadline: arrival.Arrival + q.SLO}
	if d.collecting {
		d.QueryStats(q.Name).Sent++
		d.Arrivals.Add(d.Clock.Now(), 1)
	} else {
		qi.queryName = "" // warmup instance: not measured
	}
	d.dispatchStage(qi, ql.root)
}

// dispatchStage sends one stage invocation of a query instance. The
// request carries the whole-query deadline: per-stage latency budgets are
// a planning construct for provisioning (§6.2), while the data plane drops
// a stage invocation only when the query itself can no longer make it —
// slack left over by fast upstream stages absorbs the bursts that
// downstream stages see when a parent batch completes.
func (d *Deployment) dispatchStage(qi *queryInstance, stage session.Handle) {
	req := workload.Request{
		ID:       d.nextID(),
		Arrival:  d.Clock.Now(),
		Deadline: qi.deadline,
		Session:  stage,
	}
	// Track before recording: the tracer's warmup filter identifies warmup
	// query stages through the tracking entry.
	qi.outstanding++
	d.queryTrack[req.ID] = qi
	d.tracer.Put(trace.Span{At: d.Clock.Now(), Kind: trace.ArriveName, Req: req.ID, Session: stage})
	d.dispatch(req)
}

// stageDone handles completion of one stage invocation. be is the handle
// of the backend that reported it (0 for frontend-side drops). The stage
// keeps its reference on the instance until its children are dispatched:
// a frontend drop resolves a child during dispatch, and must not finish
// the query while siblings are still to be sent.
func (d *Deployment) stageDone(qi *queryInstance, req workload.Request, outcome backend.Outcome, at time.Duration, be trace.Name) {
	lost := outcome.Bad()
	if qi.queryName != "" {
		// Warmup instances stay out of the trace, mirroring the metrics.
		d.traceDone(req, outcome, at, be)
	}
	// Per-stage accounting (stage sessions also show up in the recorder).
	if qi.queryName != "" {
		s := d.Recorder.Stats(req.Session)
		s.Sent++
		switch {
		case lost:
			d.countLoss(s, outcome)
		case at > req.Deadline:
			s.Missed++
			s.Completed++
			s.Latency.Record(at - req.Arrival)
		default:
			s.Completed++
			s.Latency.Record(at - req.Arrival)
		}
	}
	if lost {
		qi.bad = true
	} else {
		// Fan out to children; gamma is fractional, accumulated per stage
		// via a deterministic carry so long-run fan-out matches exactly.
		if meta := d.stageMeta(req.Session); meta != nil {
			for ci := range meta.children {
				n := meta.fanOut(ci)
				for k := 0; k < n; k++ {
					d.dispatchStage(qi, meta.children[ci].stage)
				}
			}
		}
		if at > qi.deadline {
			qi.bad = true
		}
	}
	if qi.outstanding--; qi.outstanding == 0 {
		d.finishQuery(qi)
	}
}

// fanOut returns how many child invocations this completion spawns,
// carrying the fractional part forward deterministically.
func (meta *stageMeta) fanOut(childIdx int) int {
	c := &meta.children[childIdx]
	c.carry += c.gamma
	n := int(c.carry)
	c.carry -= float64(n)
	return n
}

// finishQuery records the end-to-end outcome and returns the instance to
// the free list.
func (d *Deployment) finishQuery(qi *queryInstance) {
	d.freeQueries = append(d.freeQueries, qi)
	if qi.queryName == "" {
		return // warmup instance, not measured
	}
	qs := d.QueryStats(qi.queryName)
	qs.Completed++
	if qi.bad {
		qs.Missed++
		d.BadEvts.Add(d.Clock.Now(), 1)
	} else {
		d.GoodEvts.Add(d.Clock.Now(), 1)
	}
}
