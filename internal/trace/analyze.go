package trace

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// StageStats summarizes one latency stage across requests.
type StageStats struct {
	Count int
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// GPUSlot is one second of a unit's duty-cycle timeline: how much GPU time
// the unit's batches occupied within that wall-clock second.
type GPUSlot struct {
	Second int // simulation second (floor(At / 1s))
	Busy   time.Duration
}

// UnitTimeline is one execution unit's utilization timeline.
type UnitTimeline struct {
	Backend string
	Unit    string
	Batches int
	Slots   []GPUSlot
}

// Analysis is the digest `nexus-obs trace` prints: per-stage latency breakdowns
// reconstructed from request spans, drop attribution by cause, and per-GPU
// duty-cycle utilization.
type Analysis struct {
	Requests  int // requests with an Arrive event retained
	Completed int
	Dropped   int

	// Stage breakdowns over completed requests. Dispatch is arrival →
	// enqueue (frontend routing + network hop), Queue is enqueue → batch
	// submission, GPU is batch submission → completion (execute + reply
	// hop), Total is arrival → completion.
	Dispatch StageStats
	Queue    StageStats
	GPU      StageStats
	Total    StageStats

	// DropsByCause counts Drop events per cause (outcome taxonomy).
	DropsByCause map[string]int

	// Timelines is per-unit GPU utilization, sorted by backend then unit.
	Timelines []UnitTimeline

	// Blame is the per-session p99 tail attribution: for every session, a
	// stage-exact decomposition (admission, dispatch, batch-formation stall,
	// queue, GPU service, co-residency interference) averaged over the p99
	// cohort, with an exemplar request ID. Built by AttributeBlame.
	Blame []SessionBlame
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

func makeStats(samples []time.Duration) StageStats {
	if len(samples) == 0 {
		return StageStats{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return StageStats{
		Count: len(samples),
		P50:   quantile(samples, 0.50),
		P99:   quantile(samples, 0.99),
		Max:   samples[len(samples)-1],
	}
}

// Analyze reconstructs per-request spans from a flat event stream. Requests
// missing their Arrive event (evicted by ring wraparound) are excluded from
// stage stats; Drop events always count toward attribution.
func Analyze(events []Event) *Analysis {
	r := replayEvents(events)
	a := &Analysis{
		Requests: r.arrived, Completed: r.completed, Dropped: r.dropped,
		DropsByCause: r.drops,
	}
	var dispatch, queue, gpu, total []time.Duration
	for _, q := range r.done {
		total = append(total, q.complete-q.arrive)
		if q.hasEnqueue {
			dispatch = append(dispatch, q.enqueue-q.arrive)
			if q.hasExecute {
				queue = append(queue, q.execute-q.enqueue)
				gpu = append(gpu, q.complete-q.execute)
			}
		}
	}
	a.Dispatch = makeStats(dispatch)
	a.Queue = makeStats(queue)
	a.GPU = makeStats(gpu)
	a.Total = makeStats(total)
	a.Timelines = timelines(r)
	a.Blame = SessionBlames(r.blame())
	return a
}

// timelines spreads each batch's GPU time across the seconds it spans, per
// unit, sorted by backend then unit. A batch's time is spread no further
// than one second past the trace's last event: a batch still running when
// the trace ends keeps its last slot, and a corrupt Dur cannot make the
// spread run once per second of it.
func timelines(r *replay) []UnitTimeline {
	byUnit := slices.Clone(r.batches)
	slices.SortStableFunc(byUnit, func(x, y *batch) int {
		return cmp.Or(cmp.Compare(x.backend, y.backend), cmp.Compare(x.unit, y.unit))
	})
	horizon := r.last + time.Second
	var out []UnitTimeline
	for len(byUnit) > 0 {
		n := 1
		for n < len(byUnit) && byUnit[n].backend == byUnit[0].backend && byUnit[n].unit == byUnit[0].unit {
			n++
		}
		busy := map[int]time.Duration{}
		for _, b := range byUnit[:n] {
			start, remaining := b.start, min(b.dur, horizon-b.start)
			for remaining > 0 {
				sec := int(start / time.Second)
				chunk := min(remaining, time.Duration(sec+1)*time.Second-start)
				busy[sec] += chunk
				start += chunk
				remaining -= chunk
			}
		}
		tl := UnitTimeline{Backend: byUnit[0].backend, Unit: byUnit[0].unit, Batches: n}
		for s, d := range busy {
			tl.Slots = append(tl.Slots, GPUSlot{Second: s, Busy: d})
		}
		sort.Slice(tl.Slots, func(i, j int) bool { return tl.Slots[i].Second < tl.Slots[j].Second })
		out = append(out, tl)
		byUnit = byUnit[n:]
	}
	return out
}

func fmtStage(w io.Writer, name string, s StageStats) error {
	_, err := fmt.Fprintf(w, "  %-10s n=%-7d p50=%-12v p99=%-12v max=%v\n",
		name, s.Count, s.P50, s.P99, s.Max)
	return err
}

// WriteReport prints the analysis: stage breakdown, drop attribution, and
// per-unit utilization timelines.
func (a *Analysis) WriteReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "requests: %d arrived, %d completed, %d dropped\n",
		a.Requests, a.Completed, a.Dropped); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "stage latency (completed requests)"); err != nil {
		return err
	}
	for _, st := range []struct {
		name  string
		stats StageStats
	}{
		{"dispatch", a.Dispatch}, {"queue", a.Queue},
		{"gpu+reply", a.GPU}, {"total", a.Total},
	} {
		if err := fmtStage(w, st.name, st.stats); err != nil {
			return err
		}
	}
	if len(a.DropsByCause) > 0 {
		if _, err := fmt.Fprintln(w, "drop attribution"); err != nil {
			return err
		}
		causes := make([]string, 0, len(a.DropsByCause))
		for c := range a.DropsByCause {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		for _, c := range causes {
			if _, err := fmt.Fprintf(w, "  %-12s %d\n", c, a.DropsByCause[c]); err != nil {
				return err
			}
		}
	}
	if len(a.Timelines) > 0 {
		if _, err := fmt.Fprintln(w, "gpu utilization (per unit, per second)"); err != nil {
			return err
		}
		for _, tl := range a.Timelines {
			if _, err := fmt.Fprintf(w, "  %s/%s batches=%d\n", tl.Backend, tl.Unit, tl.Batches); err != nil {
				return err
			}
			for _, slot := range tl.Slots {
				util := float64(slot.Busy) / float64(time.Second)
				if _, err := fmt.Fprintf(w, "    [%3ds] %5.1f%% %s\n",
					slot.Second, util*100, bar(util)); err != nil {
					return err
				}
			}
		}
	}
	if err := WriteBlameReport(w, a.Blame); err != nil {
		return err
	}
	return nil
}

// bar renders a 0..1 utilization as a 20-char gauge.
func bar(util float64) string {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	n := int(util*20 + 0.5)
	out := make([]byte, 20)
	for i := range out {
		if i < n {
			out[i] = '#'
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
