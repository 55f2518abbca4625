package trace

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// StageBlame decomposes one request's (or a cohort's mean) end-to-end
// latency into the stages the critical path can hide in:
//
//	Admission     — frontend arrival until a backend was picked (admission
//	                control, routing-table waits)
//	Dispatch      — route decision until the request entered its unit's
//	                queue (network delay + retries)
//	Stall         — batch-formation wait: the request sat queued while its
//	                batch was still filling (until the last member arrived)
//	Queue         — the formed batch waiting for the GPU
//	GPU           — batch submission until completion (execute + reply hop),
//	                split into Service and Interference
//	Interference  — the fraction of GPU time during which another unit on
//	                the same backend was also executing (spatial
//	                co-residency contention; zero under temporal sharing)
//	Service       — GPU minus Interference
//
// The stages reconcile exactly: Admission + Dispatch + Stall + Queue + GPU
// == Total, and Service + Interference == GPU.
type StageBlame struct {
	Admission    time.Duration
	Dispatch     time.Duration
	Stall        time.Duration
	Queue        time.Duration
	GPU          time.Duration
	Service      time.Duration
	Interference time.Duration
	Total        time.Duration
}

// add accumulates another decomposition (for cohort means).
func (b *StageBlame) add(o StageBlame) {
	b.Admission += o.Admission
	b.Dispatch += o.Dispatch
	b.Stall += o.Stall
	b.Queue += o.Queue
	b.GPU += o.GPU
	b.Service += o.Service
	b.Interference += o.Interference
	b.Total += o.Total
}

// scale divides every stage by n (for cohort means).
func (b *StageBlame) scale(n int) {
	if n <= 0 {
		return
	}
	d := time.Duration(n)
	b.Admission /= d
	b.Dispatch /= d
	b.Stall /= d
	b.Queue /= d
	b.GPU /= d
	b.Service /= d
	b.Interference /= d
	b.Total /= d
}

// RequestBlame is one completed request's latency decomposition.
type RequestBlame struct {
	ReqID   uint64
	Session string
	StageBlame
}

// SessionBlame aggregates request decompositions per session: the mean over
// all completed requests, and the mean over the p99 tail cohort (requests
// whose total latency is at or above the session's p99) — where the SLO
// budget actually went for the requests that blew it. Exemplar is the
// request ID of the worst-latency request, so a hot histogram cell links to
// a concrete trace.
type SessionBlame struct {
	Session   string
	Count     int           // completed requests with a full span
	TailCount int           // requests in the p99 cohort
	P99       time.Duration // p99 total latency
	Exemplar  uint64        // request ID of the max-latency request
	Mean      StageBlame    // mean decomposition over all requests
	Tail      StageBlame    // mean decomposition over the p99 cohort
}

// AttributeBlame reconstructs a latency decomposition for every completed
// request whose full span (Arrive, Enqueue, Execute, Complete) is retained
// in the event stream. Requests with partial spans (ring eviction, drops)
// are skipped — blaming a half-seen request would misattribute the missing
// stages to whichever ones happened to survive.
func AttributeBlame(events []Event) []RequestBlame {
	return replayEvents(events).blame()
}

// blame decomposes the replay's complete spans, in completion order.
// Everything a request waits between its own enqueue and its batch's close
// is batch-formation stall, not GPU queueing.
func (r *replay) blame() []RequestBlame {
	// Co-residency interference: for each request's batch interval, how
	// much of it overlapped batches of *other* units on the same backend.
	// Under temporal sharing units serialize on the device, so this is
	// zero; under spatial compute slices concurrent batches contend for
	// memory bandwidth and the model's dilated latency shows up here.
	byBackend := map[string][]*batch{}
	for _, b := range r.batches {
		if b.tracked {
			byBackend[b.backend] = append(byBackend[b.backend], b)
		}
	}
	for _, bs := range byBackend {
		sort.Slice(bs, func(i, j int) bool {
			if bs[i].start != bs[j].start {
				return bs[i].start < bs[j].start
			}
			return bs[i].unit < bs[j].unit
		})
		reach := bs[0].end
		for _, b := range bs {
			reach = max(reach, b.end)
			b.reach = reach
		}
	}
	out := make([]RequestBlame, 0, len(r.done))
	for _, q := range r.done {
		if !q.hasEnqueue || !q.hasExecute {
			continue
		}
		b := RequestBlame{ReqID: q.id, Session: q.session}
		if q.hasRoute {
			b.Admission = q.route - q.arrive
			b.Dispatch = q.enqueue - q.route
		} else {
			b.Dispatch = q.enqueue - q.arrive
		}
		b.Stall = q.close - q.enqueue
		b.Queue = q.execute - q.close
		b.GPU = q.complete - q.execute
		b.Total = q.complete - q.arrive
		// GPU includes the reply hop, which interference cannot exceed.
		b.Interference = min(b.GPU, overlapOtherUnits(byBackend[q.batch.backend],
			q.batch.unit, q.execute, q.execute+q.execDur))
		b.Service = b.GPU - b.Interference
		out = append(out, b)
	}
	return out
}

// overlapOtherUnits returns how much of [start, end) is covered by the
// union of batches belonging to other units. Batches are sorted by start,
// with their reach set; the sweep begins at the first batch whose reach
// passes start, since it and every batch before it ended by then, and
// advances a cursor so double-covered time counts once.
func overlapOtherUnits(batches []*batch, unit string, start, end time.Duration) time.Duration {
	var covered time.Duration
	cursor := start
	first := sort.Search(len(batches), func(i int) bool { return batches[i].reach > start })
	for _, b := range batches[first:] {
		if b.start >= end {
			break
		}
		if b.unit == unit || b.end <= cursor {
			continue
		}
		s, e := max(b.start, cursor), min(b.end, end)
		if e > s {
			covered += e - s
			cursor = e
		}
	}
	return covered
}

// SessionBlames aggregates request decompositions into per-session mean and
// p99-tail breakdowns, sorted by session ID for deterministic output.
func SessionBlames(blames []RequestBlame) []SessionBlame {
	bySession := map[string][]RequestBlame{}
	for _, b := range blames {
		bySession[b.Session] = append(bySession[b.Session], b)
	}
	sessions := make([]string, 0, len(bySession))
	for s := range bySession {
		sessions = append(sessions, s)
	}
	sort.Strings(sessions)
	out := make([]SessionBlame, 0, len(sessions))
	for _, sid := range sessions {
		rs := bySession[sid]
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].Total != rs[j].Total {
				return rs[i].Total < rs[j].Total
			}
			return rs[i].ReqID < rs[j].ReqID
		})
		sb := SessionBlame{Session: sid, Count: len(rs)}
		sb.P99 = rs[int(0.99*float64(len(rs)-1))].Total
		sb.Exemplar = rs[len(rs)-1].ReqID
		for _, r := range rs {
			sb.Mean.add(r.StageBlame)
			if r.Total >= sb.P99 {
				sb.Tail.add(r.StageBlame)
				sb.TailCount++
			}
		}
		sb.Mean.scale(sb.Count)
		sb.Tail.scale(sb.TailCount)
		out = append(out, sb)
	}
	return out
}

// WriteBlameReport renders per-session tail attributions: where the p99
// cohort's latency went, stage by stage, with the worst request's ID as an
// exemplar to pull from the observation log (a grep for its "req" ID).
func WriteBlameReport(w io.Writer, blames []SessionBlame) error {
	if len(blames) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w, "p99 blame breakdown (per session, mean over the p99 tail cohort)"); err != nil {
		return err
	}
	for _, sb := range blames {
		if _, err := fmt.Fprintf(w, "  %-24s n=%-6d tail=%-4d p99=%-12v exemplar=req %d\n",
			sb.Session, sb.Count, sb.TailCount, sb.P99, sb.Exemplar); err != nil {
			return err
		}
		t := sb.Tail
		total := float64(t.Total)
		if total <= 0 {
			total = 1
		}
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{"admission", t.Admission}, {"dispatch", t.Dispatch},
			{"batch-stall", t.Stall}, {"queue", t.Queue},
			{"gpu-service", t.Service}, {"interference", t.Interference},
		} {
			if _, err := fmt.Fprintf(w, "    %-13s %10.3fms %5.1f%% %s\n",
				st.name, MS(st.d), 100*float64(st.d)/total, bar(float64(st.d)/total)); err != nil {
				return err
			}
		}
	}
	return nil
}
