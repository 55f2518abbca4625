package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// This file keeps the pre-replay readers as test oracles: oracleAnalyze,
// oracleAttributeBlame and oracleWriteChrome each rebuild every request
// and batch from the events on their own, as Analyze, AttributeBlame and
// WriteChrome did before they shared one replay. FuzzReplay and
// TestReplayMatchesOracles compare the two on event scripts.

// oracleAnalyze reconstructs per-request spans from a flat event stream. Requests
// missing their Arrive event (evicted by ring wraparound) are excluded from
// stage stats; Drop events always count toward attribution.
func oracleAnalyze(events []Event) *Analysis {
	a := &Analysis{DropsByCause: make(map[string]int)}

	type span struct {
		arrive, enqueue, execute time.Duration
		hasEnqueue, hasExecute   bool
	}
	spans := make(map[uint64]*span)
	var dispatch, queue, gpu, total []time.Duration

	type unitKey struct{ backend, unit string }
	type batchKey struct {
		unitKey
		at  time.Duration
		inc uint32
	}
	seenBatch := map[batchKey]bool{}
	busy := map[unitKey]map[int]time.Duration{}
	batches := map[unitKey]int{}
	// A batch's GPU time is spread no further than one second past the
	// trace's last event: a batch still running when the trace ends keeps
	// its last slot, and a corrupt Dur cannot make the loop below run once
	// per second of it.
	var horizon time.Duration
	for _, e := range events {
		horizon = max(horizon, e.At)
	}
	horizon += time.Second

	for _, e := range events {
		switch e.Kind {
		case Arrive:
			a.Requests++
			spans[e.ReqID] = &span{arrive: e.At}
		case Enqueue:
			if s, ok := spans[e.ReqID]; ok {
				s.enqueue, s.hasEnqueue = e.At, true
			}
		case Execute:
			if s, ok := spans[e.ReqID]; ok {
				s.execute, s.hasExecute = e.At, true
			}
			uk := unitKey{e.Backend, e.Unit}
			bk := batchKey{uk, e.At, e.Inc}
			if !seenBatch[bk] {
				seenBatch[bk] = true
				batches[uk]++
				if busy[uk] == nil {
					busy[uk] = map[int]time.Duration{}
				}
				// Spread the batch's GPU time across the seconds it spans.
				start, remaining := e.At, min(e.Dur, horizon-e.At)
				for remaining > 0 {
					sec := int(start / time.Second)
					end := time.Duration(sec+1) * time.Second
					chunk := remaining
					if start+chunk > end {
						chunk = end - start
					}
					busy[uk][sec] += chunk
					start += chunk
					remaining -= chunk
				}
			}
		case Complete:
			a.Completed++
			s, ok := spans[e.ReqID]
			if !ok {
				continue
			}
			total = append(total, e.At-s.arrive)
			if s.hasEnqueue {
				dispatch = append(dispatch, s.enqueue-s.arrive)
				if s.hasExecute {
					queue = append(queue, s.execute-s.enqueue)
					gpu = append(gpu, e.At-s.execute)
				}
			}
			delete(spans, e.ReqID)
		case Drop:
			a.Dropped++
			cause := e.Cause
			if cause == "" {
				cause = "unknown"
			}
			a.DropsByCause[cause]++
			delete(spans, e.ReqID)
		}
	}

	a.Dispatch = makeStats(dispatch)
	a.Queue = makeStats(queue)
	a.GPU = makeStats(gpu)
	a.Total = makeStats(total)

	units := make([]unitKey, 0, len(batches))
	for uk := range batches {
		units = append(units, uk)
	}
	sort.Slice(units, func(i, j int) bool {
		if units[i].backend != units[j].backend {
			return units[i].backend < units[j].backend
		}
		return units[i].unit < units[j].unit
	})
	for _, uk := range units {
		tl := UnitTimeline{Backend: uk.backend, Unit: uk.unit, Batches: batches[uk]}
		secs := make([]int, 0, len(busy[uk]))
		for s := range busy[uk] {
			secs = append(secs, s)
		}
		sort.Ints(secs)
		for _, s := range secs {
			tl.Slots = append(tl.Slots, GPUSlot{Second: s, Busy: busy[uk][s]})
		}
		a.Timelines = append(a.Timelines, tl)
	}
	a.Blame = SessionBlames(oracleAttributeBlame(events))
	return a
}

// oracleSpan accumulates one request's events until its Complete arrives.
type oracleSpan struct {
	session                          string
	arrive, route, enqueue, execute  time.Duration
	hasRoute, hasEnqueue, hasExecute bool
	backend, unit                    string
	batchDur                         time.Duration
	inc                              uint32
}

type oracleUnitKey struct{ backend, unit string }

type oracleBatchKey struct {
	oracleUnitKey
	at  time.Duration
	inc uint32
}

// oracleInterval is one batch's GPU occupancy window on a backend.
type oracleInterval struct {
	unit       string
	start, end time.Duration
}

// oracleAttributeBlame reconstructs a latency decomposition for every completed
// request whose full span (Arrive, Enqueue, Execute, Complete) is retained
// in the event stream. Requests with partial spans (ring eviction, drops)
// are skipped — blaming a half-seen request would misattribute the missing
// stages to whichever ones happened to survive.
func oracleAttributeBlame(events []Event) []RequestBlame {
	spans := make(map[uint64]*oracleSpan)
	// batchClose is the latest member-enqueue time per batch: the moment the
	// batch stopped filling. Everything a request waits between its own
	// enqueue and that close is batch-formation stall, not GPU queueing.
	batchClose := map[oracleBatchKey]time.Duration{}
	seenBatch := map[oracleBatchKey]bool{}
	// byBackend indexes batch execute intervals for the co-residency
	// interference overlap computed after the main pass.
	byBackend := map[string][]oracleInterval{}
	// pending keeps per-request exec intervals until interference resolves.
	type pendingBlame struct {
		RequestBlame
		backend, unit   string
		execAt, execEnd time.Duration
	}
	var out []pendingBlame

	for _, e := range events {
		switch e.Kind {
		case Arrive:
			spans[e.ReqID] = &oracleSpan{session: e.Session, arrive: e.At}
		case Route:
			if s, ok := spans[e.ReqID]; ok && !s.hasRoute {
				s.route, s.hasRoute = e.At, true
			}
		case Enqueue:
			if s, ok := spans[e.ReqID]; ok {
				s.enqueue, s.hasEnqueue = e.At, true
			}
		case Execute:
			s, ok := spans[e.ReqID]
			if !ok {
				continue
			}
			s.execute, s.hasExecute = e.At, true
			s.backend, s.unit, s.batchDur, s.inc = e.Backend, e.Unit, e.Dur, e.Inc
			bk := oracleBatchKey{oracleUnitKey{e.Backend, e.Unit}, e.At, e.Inc}
			if s.hasEnqueue && s.enqueue > batchClose[bk] {
				batchClose[bk] = s.enqueue
			}
			if !seenBatch[bk] {
				seenBatch[bk] = true
				byBackend[e.Backend] = append(byBackend[e.Backend],
					oracleInterval{unit: e.Unit, start: e.At, end: e.At + e.Dur})
			}
		case Complete:
			s, ok := spans[e.ReqID]
			if !ok {
				continue
			}
			delete(spans, e.ReqID)
			if !s.hasEnqueue || !s.hasExecute {
				continue
			}
			b := pendingBlame{
				RequestBlame: RequestBlame{ReqID: e.ReqID, Session: s.session},
				backend:      s.backend,
				unit:         s.unit,
				execAt:       s.execute,
				execEnd:      s.execute + s.batchDur,
			}
			if s.hasRoute {
				b.Admission = s.route - s.arrive
				b.Dispatch = s.enqueue - s.route
			} else {
				b.Dispatch = s.enqueue - s.arrive
			}
			bk := oracleBatchKey{oracleUnitKey{s.backend, s.unit}, s.execute, s.inc}
			cl := batchClose[bk]
			if cl < s.enqueue {
				cl = s.enqueue
			}
			b.Stall = cl - s.enqueue
			b.Queue = s.execute - cl
			b.GPU = e.At - s.execute
			b.Total = e.At - s.arrive
			out = append(out, b)
		case Drop:
			delete(spans, e.ReqID)
		}
	}

	// Co-residency interference: for each request's batch interval, how much
	// of it overlapped execute intervals of *other* units on the same
	// backend. Under temporal sharing units serialize on the device, so this
	// is zero; under spatial compute slices concurrent batches contend for
	// memory bandwidth and the model's dilated latency shows up here.
	for be := range byBackend {
		ivs := byBackend[be]
		sort.Slice(ivs, func(i, j int) bool {
			if ivs[i].start != ivs[j].start {
				return ivs[i].start < ivs[j].start
			}
			return ivs[i].unit < ivs[j].unit
		})
	}
	blames := make([]RequestBlame, len(out))
	for i := range out {
		p := &out[i]
		inter := oracleOverlap(byBackend[p.backend], p.unit, p.execAt, p.execEnd)
		// GPU includes the reply hop, which interference cannot exceed.
		if inter > p.GPU {
			inter = p.GPU
		}
		p.Interference = inter
		p.Service = p.GPU - inter
		blames[i] = p.RequestBlame
	}
	return blames
}

// oracleOverlap returns how much of [start, end) is covered by the
// union of intervals belonging to other units. Intervals are sorted by
// start; the sweep advances a cursor so double-covered time counts once.
func oracleOverlap(intervals []oracleInterval, unit string, start, end time.Duration) time.Duration {
	var covered time.Duration
	cursor := start
	for _, iv := range intervals {
		if iv.start >= end {
			break
		}
		if iv.unit == unit || iv.end <= cursor {
			continue
		}
		s := iv.start
		if s < cursor {
			s = cursor
		}
		e := iv.end
		if e > end {
			e = end
		}
		if e > s {
			covered += e - s
			cursor = e
		}
	}
	return covered
}

// oracleWriteChrome exports events in Chrome trace-event JSON, loadable in
// chrome://tracing or Perfetto. Backends map to processes and execution
// units to threads, so GPU batch slices ("X" events) lay out as per-unit
// duty-cycle timelines; each request becomes an async span ("b"/"e") from
// arrival to completion, and drops render as instant events annotated with
// their cause. Metadata ("M") events name the rows.
func oracleWriteChrome(w io.Writer, events []Event) error {
	const frontendPID = 0 // request spans and drops live on the frontend row
	pids := map[string]int{"frontend": frontendPID}
	tids := map[string]int{}
	var out []chromeEvent

	meta := func(pid int, name string) {
		out = append(out, chromeEvent{
			Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]any{"name": name},
		})
	}
	meta(frontendPID, "frontend")

	pid := func(backend string) int {
		p, ok := pids[backend]
		if !ok {
			p = len(pids)
			pids[backend] = p
			meta(p, backend)
		}
		return p
	}
	tid := func(p int, unit string) int {
		key := fmt.Sprintf("%d/%s", p, unit)
		t, ok := tids[key]
		if !ok {
			t = len(tids) + 1
			tids[key] = t
			out = append(out, chromeEvent{
				Name: "thread_name", Phase: "M", PID: p, TID: t,
				Args: map[string]any{"name": unit},
			})
		}
		return t
	}

	// One "X" slice per GPU batch: Execute events are per-request, so
	// dedupe on (backend, unit, at, inc) — requests batched together share
	// all four.
	type batchKey struct {
		backend, unit string
		at            time.Duration
		inc           uint32
	}
	seenBatch := map[batchKey]bool{}

	arrivals := map[uint64]Event{}
	for _, e := range events {
		switch e.Kind {
		case Arrive:
			arrivals[e.ReqID] = e
			out = append(out, chromeEvent{
				Name: e.Session, Cat: "request", Phase: "b",
				TS: us(e.At), PID: frontendPID, TID: 1,
				ID: fmt.Sprintf("req%d", e.ReqID),
			})
		case Complete, Drop:
			if _, ok := arrivals[e.ReqID]; ok {
				out = append(out, chromeEvent{
					Name: e.Session, Cat: "request", Phase: "e",
					TS: us(e.At), PID: frontendPID, TID: 1,
					ID: fmt.Sprintf("req%d", e.ReqID),
				})
			}
			if e.Kind == Drop {
				out = append(out, chromeEvent{
					Name: "drop:" + e.Cause, Cat: "drop", Phase: "i",
					TS: us(e.At), PID: frontendPID, TID: 1, Scope: "t",
					Args: map[string]any{"session": e.Session, "req": e.ReqID},
				})
			}
		case Execute:
			k := batchKey{e.Backend, e.Unit, e.At, e.Inc}
			if seenBatch[k] {
				continue
			}
			seenBatch[k] = true
			p := pid(e.Backend)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("%s batch=%d", e.Session, e.Batch),
				Cat:  "gpu", Phase: "X",
				TS: us(e.At), Dur: us(e.Dur), PID: p, TID: tid(p, e.Unit),
				Args: map[string]any{"batch": e.Batch, "inc": e.Inc},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeDoc{TraceEvents: out, DisplayTimeUnit: "ms"})
}
