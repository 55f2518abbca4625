package forensics_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"nexus/internal/forensics"
	"nexus/internal/obslog"
	"nexus/internal/session"
	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

const ms = time.Millisecond

func alert(rule string) telemetry.Alert {
	return telemetry.Alert{Rule: rule, Target: "s", State: "firing", Value: 9.5}
}

// tracerOf returns a tracer of capacity n holding evs, put through the
// handles the request path records with.
func tracerOf(n int, evs ...trace.Event) *trace.Tracer {
	sessions := session.NewTable()
	tr := trace.New(n, sessions)
	for _, e := range evs {
		tr.Put(trace.Span{At: e.At, Dur: e.Dur, Req: e.ReqID, Inc: e.Inc, Batch: e.Batch,
			Kind: tr.Name(string(e.Kind)), Session: sessions.Intern(e.Session), Backend: tr.Name(e.Backend),
			Unit: tr.Name(e.Unit), Cause: tr.Name(e.Cause), Detail: tr.Name(e.Detail)})
	}
	return tr
}

// seededPlanes builds a tracer and audit log with records on both sides of
// the 5s default capture window around a trigger at t=10s; the tracer holds
// extra after its own spans.
func seededPlanes(extra ...trace.Event) (*trace.Tracer, *trace.Audit) {
	tr := tracerOf(64, append([]trace.Event{
		// Outside the [5s, 10s] window.
		{At: 2 * time.Second, Kind: trace.Arrive, ReqID: 1, Session: "s"},
		// Inside.
		{At: 7 * time.Second, Kind: trace.Arrive, ReqID: 2, Session: "s"},
		{At: 8 * time.Second, Kind: trace.Complete, ReqID: 2, Session: "s"},
	}, extra...)...)

	audit := trace.NewAudit()
	audit.RecordChaos(trace.ChaosRecord{AtMS: 1000, Kind: "outage", Backend: "be0", To: "down"})
	audit.RecordChaos(trace.ChaosRecord{AtMS: 9000, Kind: "outage", Backend: "be1", To: "down"})
	audit.RecordPlacement(trace.PlacementRecord{Epoch: 1, AtMS: 9500, Node: "plan-0"})
	audit.RecordPlanDiff(trace.PlanDiffRecord{Epoch: 1, AtMS: 9500, Cause: "periodic"})
	audit.RecordPlanDiff(trace.PlanDiffRecord{Epoch: 0, AtMS: 100, Cause: "initial"})
	return tr, audit
}

func TestTriggerCapturesWindow(t *testing.T) {
	tr, audit := seededPlanes()
	r := forensics.New(forensics.Config{})
	r.Trigger(10*time.Second, alert("slo-burn-rate"), tr)

	dumps := r.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Rule != "slo-burn-rate" || d.AtMS != 10000 || d.WindowMS != 5000 {
		t.Fatalf("dump header %+v", d)
	}
	if spans := d.Spans.Events(); len(spans) != 2 || spans[0].ReqID != 2 {
		t.Fatalf("spans %+v, want the two in-window req-2 events", spans)
	}
	// The 4s sample is outside [5s, 10s]; the window view must exclude it.
	l := obslog.Log{Audit: audit, Snapshots: []telemetry.Snapshot{
		{At: 4 * time.Second, AtMS: 4000}, {At: 9 * time.Second, AtMS: 9000}}}
	w := l.Window(&d)
	if chaos := w.Audit.Chaos(); len(chaos) != 1 || chaos[0].Backend != "be1" {
		t.Fatalf("chaos %+v, want only the 9s outage", chaos)
	}
	if diffs := w.Audit.PlanDiffs(); len(diffs) != 1 || diffs[0].Cause != "periodic" {
		t.Fatalf("plan diffs %+v, want only the 9.5s record", diffs)
	}
	if len(w.Audit.Placements()) != 1 {
		t.Fatalf("placements %+v, want one", w.Audit.Placements())
	}
	if len(w.Snapshots) != 1 || w.Snapshots[0].AtMS != 9000 {
		t.Fatalf("samples %+v, want only the 9s snapshot", w.Snapshots)
	}
}

// TestWindowIncludesTriggerInstant pins the window's closed upper bound: a
// record stamped at the trigger instant is inside even when it is logged
// after the trigger fired, and one a nanosecond later is not.
// TestDumpSaysWhenRingOverwroteWindow checks spans_from_ms: absent while
// the tracer's ring reaches back to the window's start, and the time of the
// oldest retained span once the ring has overwritten part of the window.
func TestDumpSaysWhenRingOverwroteWindow(t *testing.T) {
	var evs []trace.Event
	for i := 1; i <= 8; i++ {
		evs = append(evs, trace.Event{At: time.Duration(i) * time.Second, Kind: trace.Arrive, ReqID: uint64(i), Session: "s"})
	}
	alert := telemetry.Alert{Rule: "slo-burn-rate", Target: "s", State: "firing"}
	for _, c := range []struct {
		ring int
		want float64 // 0 = absent
	}{
		{8, 0},    // nothing overwritten
		{7, 0},    // only the 1s span, before the window [3s, 8s]
		{6, 3000}, // the oldest retained span is at the window's start
		{4, 5000}, // the 3s and 4s spans overwritten
	} {
		r := forensics.New(forensics.Config{Window: 5 * time.Second})
		r.Trigger(8*time.Second, alert, tracerOf(c.ring, evs...))
		d := r.Dumps()[0]
		if d.SpansFromMS != c.want {
			t.Errorf("ring of %d: spans_from_ms %v, want %v", c.ring, d.SpansFromMS, c.want)
		}
		if c.want != 0 {
			if first := d.Spans.Events()[0].At; trace.MS(first) != c.want {
				t.Errorf("ring of %d: first span at %v, want spans_from_ms %v", c.ring, first, c.want)
			}
		}
	}
}

func TestWindowIncludesTriggerInstant(t *testing.T) {
	tr, audit := seededPlanes()
	r := forensics.New(forensics.Config{})
	r.Trigger(10*time.Second, alert("slo-burn-rate"), tr)
	audit.RecordChaos(trace.ChaosRecord{AtMS: 10000, Kind: "outage", Backend: "be2", To: "down"})
	audit.RecordChaos(trace.ChaosRecord{AtMS: trace.MS(10*time.Second + 1), Kind: "outage", Backend: "be3", To: "down"})
	chaos := obslog.Log{Audit: audit}.Window(&r.Dumps()[0]).Audit.Chaos()
	if len(chaos) != 2 || chaos[0].Backend != "be1" || chaos[1].Backend != "be2" {
		t.Fatalf("chaos %+v, want the 9s and the 10s outages", chaos)
	}
}

func TestTriggerCooldownAndCap(t *testing.T) {
	tr, _ := seededPlanes()
	r := forensics.New(forensics.Config{Window: 2 * time.Second, MaxDumps: 2})
	r.Trigger(10*time.Second, alert("a"), tr)
	// Inside the cooldown, which is one window: suppressed.
	r.Trigger(11*time.Second, alert("b"), tr)
	if got := len(r.Dumps()); got != 1 {
		t.Fatalf("cooldown leaked: %d dumps", got)
	}
	// Past the cooldown: captured (hits the cap).
	r.Trigger(13*time.Second, alert("c"), tr)
	// Past cooldown again but over MaxDumps: suppressed.
	r.Trigger(16*time.Second, alert("d"), tr)
	if got := len(r.Dumps()); got != 2 {
		t.Fatalf("got %d dumps, want 2", got)
	}
	if r.Suppressed() != 2 {
		t.Fatalf("suppressed %d, want 2", r.Suppressed())
	}
	if r.Dumps()[1].Rule != "c" {
		t.Fatalf("second dump rule %q, want c", r.Dumps()[1].Rule)
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *forensics.Recorder
	r.Trigger(time.Second, alert("x"), nil)
	if r.Dumps() != nil || r.Suppressed() != 0 {
		t.Fatal("nil recorder retained state")
	}
}

func TestDumpWriteText(t *testing.T) {
	// Give the captured spans a full attributable request.
	tr, audit := seededPlanes(
		trace.Event{At: 8500 * ms, Kind: trace.Arrive, ReqID: 9, Session: "s"},
		trace.Event{At: 8600 * ms, Kind: trace.Enqueue, ReqID: 9, Session: "s", Backend: "be0", Unit: "u"},
		trace.Event{At: 8700 * ms, Kind: trace.Execute, ReqID: 9, Session: "s", Backend: "be0", Unit: "u", Dur: 100 * ms, Inc: 1},
		trace.Event{At: 8900 * ms, Kind: trace.Complete, ReqID: 9, Session: "s"},
	)
	r := forensics.New(forensics.Config{})
	r.Trigger(10*time.Second, alert("slo-burn-rate"), tr)

	var sb bytes.Buffer
	if err := obslog.WriteDump(&sb, obslog.Log{Audit: audit}, &r.Dumps()[0]); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"dump at 10000.0ms: slo-burn-rate(s)",
		"captured: 6 spans, 1 placements, 1 plan diffs, 1 chaos edges, 0 samples",
		"chaos edges in window:",
		"outage",
		"cause=periodic",
		"p99 blame breakdown",
		"exemplar=req 9",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("dump text missing %q:\n%s", want, out)
		}
	}
}

// TestDumpSpanBytes: a dump keeps each captured span in at most 16 bytes of
// heap, and taking a window's spans allocates once, for their encoding: the
// names are the tracer's table, shared. Two window shapes: one session's
// requests on one backend, each finished before the next arrives, and a
// traffic-shaped window whose requests interleave across sessions and
// backends and whose drops carry a cause and a detail.
func TestDumpSpanBytes(t *testing.T) {
	for _, shape := range []struct {
		name   string
		events func(n int) []trace.Event
	}{
		{"one-session", oneSessionEvents},
		{"traffic", trafficEvents},
	} {
		for _, n := range []int{10, 1000, 100000} {
			evs := shape.events(n)
			tr := tracerOf(n, evs...)
			at := evs[n-1].At
			r := forensics.New(forensics.Config{Window: at})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.Trigger(at, alert("slo-burn-rate"), tr)
			runtime.ReadMemStats(&after)
			if got := r.Dumps()[0].Spans.Len(); got != n {
				t.Fatalf("%s: dump holds %d spans, want %d", shape.name, got, n)
			}
			// The dump's own header and the recorder's slice are a fixed
			// cost, amortized only over a large window.
			per := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
			t.Logf("%s, %d spans: %.2f heap bytes per captured span", shape.name, n, per)
			if n >= 1000 && per > 16 {
				t.Errorf("%s, %d spans: %.1f heap bytes per captured span, want <= 16", shape.name, n, per)
			}
			// With the collector off, a cycle's background work (the
			// runtime allocates in it under -race) cannot land in the count.
			gc := debug.SetGCPercent(-1)
			allocs := testing.AllocsPerRun(20, func() { tr.Between(0, at) })
			debug.SetGCPercent(gc)
			if allocs != 1 {
				t.Errorf("%s, %d spans: Between makes %.0f allocations, want 1", shape.name, n, allocs)
			}
		}
	}
}

// oneSessionEvents returns n spans of one session's requests on one
// backend, one span a microsecond: the window's distinct names, which a
// capture stores once each, stay fixed while the spans grow.
func oneSessionEvents(n int) []trace.Event {
	kinds := []trace.Kind{trace.Arrive, trace.Route, trace.Enqueue, trace.Execute, trace.Complete}
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{At: time.Duration(i) * time.Microsecond, Kind: kinds[i%len(kinds)],
			ReqID: uint64(i / len(kinds)), Session: "game-0", Backend: "be0", Unit: "game-0/u0", Batch: 4}
	}
	return evs
}

// trafficEvents returns n time-ordered spans shaped like traffic-chaos: a
// request arrives every ~70µs from one of six sessions, so hundreds are in
// flight and their spans interleave; each is routed to one of four
// backends, executes in a batch of 1–32 for 5–30 ms, and one in eight
// drops with a cause and a detail.
func trafficEvents(n int) []trace.Event {
	sessions := []string{"game-0", "game-1", "game-2", "traffic/det", "traffic/car", "traffic/face"}
	causes := [][2]string{{"deadline", "early drop"}, {"overload", "queue full"}, {"failure", "backend down"}}
	rng := rand.New(rand.NewSource(int64(n)))
	var evs []trace.Event
	arrive := time.Duration(0)
	for req := uint64(1); len(evs) < n; req++ {
		arrive += time.Duration(40+rng.Intn(60)) * time.Microsecond
		s := sessions[rng.Intn(len(sessions))]
		be := fmt.Sprintf("be%d", rng.Intn(4))
		unit := s + "/" + be
		enq := arrive + time.Duration(500+rng.Intn(1000))*time.Microsecond
		exec := enq + time.Duration(rng.Intn(20))*time.Millisecond
		gpu := time.Duration(5+rng.Intn(25)) * time.Millisecond
		evs = append(evs,
			trace.Event{At: arrive, Kind: trace.Arrive, ReqID: req, Session: s},
			trace.Event{At: arrive, Kind: trace.Route, ReqID: req, Session: s, Backend: be, Unit: unit},
			trace.Event{At: enq, Kind: trace.Enqueue, ReqID: req, Session: s, Backend: be, Unit: unit, Dur: enq - arrive})
		if rng.Intn(8) == 0 {
			c := causes[rng.Intn(len(causes))]
			evs = append(evs, trace.Event{At: exec, Kind: trace.Drop, ReqID: req, Session: s, Backend: be,
				Dur: exec - arrive, Cause: c[0], Detail: c[1]})
			continue
		}
		evs = append(evs,
			trace.Event{At: exec, Kind: trace.Execute, ReqID: req, Session: s, Backend: be, Unit: unit,
				Batch: int32(1 + rng.Intn(32)), Dur: gpu, Inc: 1},
			trace.Event{At: exec + gpu, Kind: trace.Complete, ReqID: req, Session: s, Backend: be, Dur: exec + gpu - arrive})
	}
	evs = evs[:n]
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
	return evs
}
