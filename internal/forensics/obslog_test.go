package forensics_test

import (
	"bytes"
	"testing"
	"time"

	"nexus/internal/forensics"
	"nexus/internal/obslog"
	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

// Dumps reach disk as dump records of the observation log, next to the
// records their window covers. Decoding the log rebuilds the window's
// samples' At, and re-encoding the decoded log gives back the same bytes.
func TestDumpsJSONLRoundTrip(t *testing.T) {
	tr := tracerOf(64,
		trace.Event{At: 7 * time.Second, Kind: trace.Arrive, ReqID: 2, Session: "s"},
		trace.Event{At: 8 * time.Second, Kind: trace.Complete, ReqID: 2, Session: "s"})
	audit := trace.NewAudit()
	audit.RecordChaos(trace.ChaosRecord{AtMS: 9000, Kind: "outage", Backend: "be1", To: "down"})
	audit.RecordPlacement(trace.PlacementRecord{Epoch: 1, AtMS: 9500, Node: "plan-0"})
	audit.RecordPlanDiff(trace.PlanDiffRecord{Epoch: 1, AtMS: 9500, Cause: "periodic"})
	snaps := []telemetry.Snapshot{telemetry.SnapshotOf(9*time.Second,
		map[string]float64{"session_good_total|session=s": 12}, nil, nil)}

	r := forensics.New(forensics.Config{})
	r.Trigger(10*time.Second, telemetry.Alert{Rule: "slo-burn-rate", Target: "s", State: "firing", Value: 9.5}, tr)

	var a bytes.Buffer
	if err := obslog.Write(&a, obslog.Log{Audit: audit, Snapshots: snaps, Dumps: r.Dumps()}); err != nil {
		t.Fatal(err)
	}
	l, err := obslog.Read(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	back := l.Dumps
	if len(back) != 1 {
		t.Fatalf("round trip read %d dumps, want 1", len(back))
	}
	if w := l.Window(&back[0]); w.Snapshots[0].At != 9*time.Second {
		t.Fatalf("sample At not reconstructed: %v", w.Snapshots[0].At)
	}
	var b bytes.Buffer
	if err := obslog.Write(&b, l); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", a.String(), b.String())
	}
}
