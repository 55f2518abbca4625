package forensics

import (
	"bytes"
	"testing"
	"time"

	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

const ms = time.Millisecond

func alert(rule string) telemetry.Alert {
	return telemetry.Alert{Rule: rule, Target: "s", State: "firing", Value: 9.5}
}

// seededPlanes builds a tracer and audit log with records on both sides of
// the 5s default capture window around a trigger at t=10s.
func seededPlanes() (*trace.Tracer, *trace.Audit) {
	tr := trace.New(64)
	// Outside the [5s, 10s] window.
	tr.Record(trace.Event{At: 2 * time.Second, Kind: trace.Arrive, ReqID: 1, Session: "s"})
	// Inside.
	tr.Record(trace.Event{At: 7 * time.Second, Kind: trace.Arrive, ReqID: 2, Session: "s"})
	tr.Record(trace.Event{At: 8 * time.Second, Kind: trace.Complete, ReqID: 2, Session: "s"})

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
	r := New(Config{})
	r.ObserveSample(telemetry.Snapshot{At: 4 * time.Second, AtMS: 4000})
	r.ObserveSample(telemetry.Snapshot{At: 9 * time.Second, AtMS: 9000})
	r.Trigger(10*time.Second, alert("slo-burn-rate"), tr, audit)

	dumps := r.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Rule != "slo-burn-rate" || d.AtMS != 10000 || d.WindowMS != 5000 {
		t.Fatalf("dump header %+v", d)
	}
	if len(d.Spans) != 2 || d.Spans[0].ReqID != 2 {
		t.Fatalf("spans %+v, want the two in-window req-2 events", d.Spans)
	}
	if len(d.Chaos) != 1 || d.Chaos[0].Backend != "be1" {
		t.Fatalf("chaos %+v, want only the 9s outage", d.Chaos)
	}
	if len(d.PlanDiffs) != 1 || d.PlanDiffs[0].Cause != "periodic" {
		t.Fatalf("plan diffs %+v, want only the 9.5s record", d.PlanDiffs)
	}
	if len(d.Placements) != 1 {
		t.Fatalf("placements %+v, want one", d.Placements)
	}
	// The 4s sample is outside [5s, 10s] but survives the recorder's own
	// trim (trim is relative to the latest sample); the window filter at
	// dump time must still exclude it.
	if len(d.Samples) != 1 || d.Samples[0].AtMS != 9000 {
		t.Fatalf("samples %+v, want only the 9s snapshot", d.Samples)
	}
}

func TestTriggerCooldownAndCap(t *testing.T) {
	tr, audit := seededPlanes()
	r := New(Config{Window: time.Second, Cooldown: 2 * time.Second, MaxDumps: 2})
	r.Trigger(10*time.Second, alert("a"), tr, audit)
	// Inside the cooldown: suppressed.
	r.Trigger(11*time.Second, alert("b"), tr, audit)
	if got := len(r.Dumps()); got != 1 {
		t.Fatalf("cooldown leaked: %d dumps", got)
	}
	// Past the cooldown: captured (hits the cap).
	r.Trigger(13*time.Second, alert("c"), tr, audit)
	// Past cooldown again but over MaxDumps: suppressed.
	r.Trigger(16*time.Second, alert("d"), tr, audit)
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

func TestObserveSampleTrimsWindow(t *testing.T) {
	r := New(Config{Window: 2 * time.Second})
	for i := 0; i <= 10; i++ {
		at := time.Duration(i) * time.Second
		r.ObserveSample(telemetry.Snapshot{At: at, AtMS: float64(at) / float64(ms)})
	}
	// Window 2s behind the 10s sample: 8s, 9s, 10s survive.
	if len(r.samples) != 3 || r.samples[0].AtMS != 8000 {
		t.Fatalf("trim kept %d samples starting %v, want 3 from 8s", len(r.samples), r.samples[0].AtMS)
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	r.ObserveSample(telemetry.Snapshot{})
	r.Trigger(time.Second, alert("x"), nil, nil)
	if r.Dumps() != nil || r.Suppressed() != 0 {
		t.Fatal("nil recorder retained state")
	}
}

func TestDumpWriteText(t *testing.T) {
	tr, audit := seededPlanes()
	// Give the captured spans a full attributable request.
	tr.Record(trace.Event{At: 8500 * ms, Kind: trace.Arrive, ReqID: 9, Session: "s"})
	tr.Record(trace.Event{At: 8600 * ms, Kind: trace.Enqueue, ReqID: 9, Session: "s", Backend: "be0", Unit: "u"})
	tr.Record(trace.Event{At: 8700 * ms, Kind: trace.Execute, ReqID: 9, Session: "s", Backend: "be0", Unit: "u", Dur: 100 * ms, Inc: 1})
	tr.Record(trace.Event{At: 8900 * ms, Kind: trace.Complete, ReqID: 9, Session: "s"})
	r := New(Config{})
	r.Trigger(10*time.Second, alert("slo-burn-rate"), tr, audit)

	var sb bytes.Buffer
	if err := r.Dumps()[0].WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"dump at 10000.0ms: slo-burn-rate(s)",
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
