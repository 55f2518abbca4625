package obslog

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"nexus/internal/forensics"
	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

// WriteTrace renders `nexus-obs trace`: the span analysis (per-stage
// latency, drop attribution, per-unit GPU utilization, p99 blame), then the
// control-plane audit log.
func WriteTrace(w io.Writer, l Log) error {
	if len(l.Spans) == 0 {
		return errors.New("log holds no spans (was the run traced?)")
	}
	if _, err := fmt.Fprintf(w, "trace: %d events\n", len(l.Spans)); err != nil {
		return err
	}
	if err := trace.Analyze(l.Spans).WriteReport(w); err != nil {
		return err
	}
	if l.Audit == nil {
		return nil
	}
	if _, err := fmt.Fprintln(w, "control-plane audit log"); err != nil {
		return err
	}
	return l.Audit.WriteText(w)
}

// WriteBlame renders `nexus-obs blame`: each flight-recorder dump with the
// blame breakdown of its own spans, then the per-session p99 blame
// breakdown of the whole trace.
func WriteBlame(w io.Writer, l Log) error {
	blames := trace.SessionBlames(trace.AttributeBlame(l.Spans))
	if len(l.Dumps) == 0 && len(blames) == 0 {
		return errors.New("log holds no dumps and no attributable requests (need enqueue+execute+complete spans)")
	}
	if len(l.Dumps) > 0 {
		if _, err := fmt.Fprintf(w, "flight recorder: %d dump bundle(s)\n", len(l.Dumps)); err != nil {
			return err
		}
		for i := range l.Dumps {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
			if err := WriteDump(w, l, &l.Dumps[i]); err != nil {
				return err
			}
		}
	}
	if len(blames) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "trace: %d events\n", len(l.Spans)); err != nil {
		return err
	}
	return trace.WriteBlameReport(w, blames)
}

// WriteDump renders one flight-recorder dump of l for terminals: the
// trigger header, what l holds inside the dump's window (chaos edges and
// plan diffs in full, placements and snapshots as counts), and the
// per-session blame breakdown of the dump's spans.
func WriteDump(w io.Writer, l Log, d *forensics.Dump) error {
	win := l.Window(d)
	var b strings.Builder
	fmt.Fprintf(&b, "dump at %.1fms: %s(%s) value=%.2f window=%.0fms\n",
		d.AtMS, d.Rule, d.Target, d.Value, d.WindowMS)
	if d.Detail != "" {
		fmt.Fprintf(&b, "  %s\n", d.Detail)
	}
	a := win.Audit
	fmt.Fprintf(&b, "  captured: %d spans, %d placements, %d plan diffs, %d chaos edges, %d samples\n",
		len(win.Spans), len(a.Placements()), len(a.PlanDiffs()), len(a.Chaos()), len(win.Snapshots))
	if len(a.Chaos()) > 0 {
		fmt.Fprintln(&b, "  chaos edges in window:")
		for _, c := range a.Chaos() {
			fmt.Fprintf(&b, "    %9.1fms %-10s", c.AtMS, c.Kind)
			if c.Backend != "" {
				b.WriteString(" backend=" + c.Backend)
			}
			if c.Frontend != "" {
				b.WriteString(" frontend=" + c.Frontend)
			}
			if c.From != "" || c.To != "" {
				fmt.Fprintf(&b, " %s->%s", c.From, c.To)
			}
			b.WriteString("\n")
		}
	}
	for _, pd := range a.PlanDiffs() {
		trace.WritePlanDiffText(&b, pd)
	}
	if blames := trace.SessionBlames(trace.AttributeBlame(win.Spans)); len(blames) > 0 {
		trace.WriteBlameReport(&b, blames)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteDiff renders `nexus-obs diff`: the plan-diff history, one
// structured change log per scheduler decision.
func WriteDiff(w io.Writer, l Log) error {
	diffs := l.Audit.PlanDiffs()
	if _, err := fmt.Fprintf(w, "plan-diff history: %d epoch(s)\n", len(diffs)); err != nil {
		return err
	}
	for _, pd := range diffs {
		if err := trace.WritePlanDiffText(w, pd); err != nil {
			return err
		}
	}
	return nil
}

// WriteTop renders one `nexus-obs top` dashboard frame: the last snapshot
// is the displayed state, the one before it gives rate deltas, and the
// alert log and plan-diff history are shown up to the displayed time.
func WriteTop(w io.Writer, l Log) error {
	if len(l.Snapshots) == 0 {
		return errors.New("log holds no telemetry snapshots (empty or truncated stream?)")
	}
	snaps := l.Snapshots
	cur := &snaps[len(snaps)-1]
	var prev *telemetry.Snapshot
	if len(snaps) > 1 {
		prev = &snaps[len(snaps)-2]
	}
	var b strings.Builder

	epochs, _ := cur.Counter("sched_epochs_total")
	moved, _ := cur.Counter("sched_sessions_moved_total")
	alloc, _ := cur.Gauge("sched_gpus_allocated")
	demanded, _ := cur.Gauge("sched_gpus_demanded")
	capacity, _ := cur.Gauge("cluster_gpus_capacity")
	fmt.Fprintf(&b, "nexus-top  t=%.1fs  epochs=%.0f  moves=%.0f  gpus=%.0f/%.0f (demand %.0f)\n\n",
		cur.AtMS/1000, epochs, moved, alloc, capacity, demanded)

	// Per-session panel.
	fmt.Fprintf(&b, "%-24s %9s %9s %8s %8s %10s\n", "SESSION", "SENT", "GOOD", "BAD", "ATTAIN%", "GOODPUT/S")
	for _, key := range cur.Keys("session_sent_total") {
		sid := telemetry.LabelValue(key, "session")
		sent, _ := cur.Counter(key)
		good, _ := cur.Counter(telemetry.Key("session_good_total", "session", sid))
		bad, _ := cur.Counter(telemetry.Key("session_bad_total", "session", sid))
		attain := 100.0
		if good+bad > 0 {
			attain = 100 * good / (good + bad)
		}
		goodput := 0.0
		if prev != nil && cur.At > prev.At {
			pg, _ := prev.Counter(telemetry.Key("session_good_total", "session", sid))
			goodput = (good - pg) / (cur.At - prev.At).Seconds()
		}
		fmt.Fprintf(&b, "%-24s %9.0f %9.0f %8.0f %8.2f %10.1f\n", sid, sent, good, bad, attain, goodput)
	}

	// Per-GPU panel. Under forensics the exec window carries an exemplar
	// request ID — the lead request of the window's worst batch — so a hot
	// p99 cell names a concrete span to chase in the trace.
	fmt.Fprintf(&b, "\n%-10s %4s %7s %7s %7s %10s %12s\n", "BACKEND", "UP", "DUTY%", "QUEUE", "BATCH", "EXEC p99", "EXEMPLAR")
	for _, key := range cur.Keys("backend_up") {
		beID := telemetry.LabelValue(key, "backend")
		up, _ := cur.Gauge(key)
		duty, _ := cur.Gauge(telemetry.Key("backend_duty", "backend", beID))
		queue, _ := cur.Gauge(telemetry.Key("backend_queue_depth", "backend", beID))
		batch, _ := cur.Gauge(telemetry.Key("backend_batch_size", "backend", beID))
		upStr := "down"
		if up > 0 {
			upStr = "up"
		}
		p99, exemplar := "-", "-"
		if w, ok := cur.Window(telemetry.Key("backend_exec_ms", "backend", beID)); ok && w.Count > 0 {
			p99 = fmt.Sprintf("%.2fms", w.P99MS)
			if w.ExemplarID != 0 {
				exemplar = fmt.Sprintf("req %d", w.ExemplarID)
			}
		}
		fmt.Fprintf(&b, "%-10s %4s %7.1f %7.0f %7.1f %10s %12s\n", beID, upStr, 100*duty, queue, batch, p99, exemplar)
	}

	// Plan-change panel: the scheduler's most recent decisions up to the
	// displayed time — the "what changed right before" half of a tail
	// regression.
	var recentDiffs []trace.PlanDiffRecord
	for _, pd := range l.Audit.PlanDiffs() {
		if pd.AtMS > cur.AtMS {
			break
		}
		recentDiffs = append(recentDiffs, pd)
	}
	if n := len(recentDiffs); n > 0 {
		shown := recentDiffs[max(0, n-3):]
		fmt.Fprintf(&b, "\nplan changes (last %d epochs):\n", len(shown))
		for _, pd := range shown {
			trace.WritePlanDiffText(&b, pd)
		}
	}

	// Alert panel: transitions up to the displayed time; firing set last.
	firing := map[string]telemetry.Alert{}
	var recent []telemetry.Alert
	for _, a := range l.Alerts {
		if a.At > cur.At {
			break
		}
		recent = append(recent, a)
		key := a.Rule + "(" + a.Target + ")"
		if a.State == "firing" {
			firing[key] = a
		} else {
			delete(firing, key)
		}
	}
	if len(firing) > 0 {
		keys := make([]string, 0, len(firing))
		for k := range firing {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "\nFIRING:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s", k)
		}
		fmt.Fprintln(&b)
	}
	if n := len(recent); n > 0 {
		fmt.Fprintf(&b, "\nlast alerts:\n")
		for _, a := range recent[max(0, n-5):] {
			fmt.Fprintf(&b, "  t=%8.3fs %-8s %s(%s) %s\n", a.AtMS/1000, a.State, a.Rule, a.Target, a.Detail)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
