package telemetry_test

import (
	"bytes"
	"testing"
	"time"

	"nexus/internal/obslog"
	"nexus/internal/telemetry"
)

// Snapshots and alerts reach disk as records of the observation log; these
// tests pin that the telemetry planes survive obslog.Write then obslog.Read.

func tickedCollector() *telemetry.Collector {
	c := telemetry.NewCollector(telemetry.Config{Interval: 500 * time.Millisecond})
	r := c.Registry()
	r.Counter("session_good_total", "session", "s").Set(120)
	r.Gauge("backend_queue_depth", "backend", "be0").Set(7)
	r.Window("backend_exec_ms", "backend", "be0").Observe(25 * time.Millisecond)
	c.Tick(time.Second)
	return c
}

func writeLog(t *testing.T, l obslog.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := obslog.Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotsJSONLRoundTrip(t *testing.T) {
	c := tickedCollector()
	c.Registry().Counter("session_good_total", "session", "s").Set(240)
	c.Tick(2 * time.Second)

	l, err := obslog.Read(bytes.NewReader(writeLog(t, obslog.Log{Snapshots: c.Snapshots()})))
	if err != nil {
		t.Fatal(err)
	}
	got := l.Snapshots
	if len(got) != 2 {
		t.Fatalf("round trip: %d snapshots, want 2", len(got))
	}
	if got[1].At != 2*time.Second {
		t.Errorf("At reconstructed from at_ms: %v", got[1].At)
	}
	if v, _ := got[1].Counter(telemetry.Key("session_good_total", "session", "s")); v != 240 {
		t.Errorf("counter after round trip: %v", v)
	}
	if w, _ := got[0].Window(telemetry.Key("backend_exec_ms", "backend", "be0")); w.Count != 1 {
		t.Errorf("window after round trip: %+v", w)
	}
}

func TestSnapshotsJSONLDeterministic(t *testing.T) {
	write := func() []byte {
		return writeLog(t, obslog.Log{Snapshots: tickedCollector().Snapshots()})
	}
	if !bytes.Equal(write(), write()) {
		t.Error("identical registries must serialize byte-identically")
	}
}

func TestAlertsJSONLRoundTrip(t *testing.T) {
	in := []telemetry.Alert{
		{At: time.Second, AtMS: 1000, Rule: "slo-burn-rate", Target: "s", State: "firing", Value: 8.5, Detail: "x"},
		{At: 2 * time.Second, AtMS: 2000, Rule: "slo-burn-rate", Target: "s", State: "resolved"},
	}
	l, err := obslog.Read(bytes.NewReader(writeLog(t, obslog.Log{Alerts: in})))
	if err != nil {
		t.Fatal(err)
	}
	got := l.Alerts
	if len(got) != 2 || got[0] != in[0] || got[1] != in[1] {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, in)
	}
}
