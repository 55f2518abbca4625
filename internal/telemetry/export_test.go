package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"nexus/internal/trace"
)

// sampleCollector builds a collector with one tick of representative data.
func sampleCollector(t *testing.T) *Collector {
	t.Helper()
	c := NewCollector(Config{Interval: 500 * time.Millisecond})
	r := c.Registry()
	r.Counter("session_good_total", "session", "s").Set(120)
	r.Gauge("backend_queue_depth", "backend", "be0").Set(7)
	r.Window("backend_exec_ms", "backend", "be0").Observe(25 * time.Millisecond)
	c.Tick(time.Second)
	return c
}

func TestWritePrometheus(t *testing.T) {
	c := sampleCollector(t)
	snaps := c.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no snapshot")
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, &snaps[len(snaps)-1]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE nexus_session_good_total counter",
		`nexus_session_good_total{session="s"} 120`,
		"# TYPE nexus_backend_queue_depth gauge",
		`nexus_backend_queue_depth{backend="be0"} 7`,
		`nexus_backend_exec_ms_count{backend="be0"} 1`,
		`nexus_backend_exec_ms_p99{backend="be0"}`,
		"nexus_snapshot_at_ms 1000",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Escaped label values stay valid exposition lines.
	c.Registry().Counter("session_good_total", "session", `q"x`).Set(3)
	c.Tick(2 * time.Second)
	snaps = c.Snapshots()
	buf.Reset()
	if err := WritePrometheus(&buf, &snaps[len(snaps)-1]); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if want := `nexus_session_good_total{session="q\"x"} 3` + "\n"; !strings.Contains(out, want) {
		t.Errorf("prometheus output missing %q:\n%s", want, out)
	}
	// Exactly one TYPE header per family.
	if n := strings.Count(out, "# TYPE nexus_session_good_total "); n != 1 {
		t.Errorf("want one TYPE header, got %d", n)
	}
}

func TestCollectorLifecycle(t *testing.T) {
	var nilC *Collector
	nilC.Tick(time.Second) // all nil-safe
	if nilC.Registry() != nil || nilC.Snapshots() != nil || nilC.Alerts() != nil {
		t.Error("nil collector must return nils")
	}
	nilC.AddHealth(HealthReport{})
	if nilC.Health() != nil || nilC.Interval() != 0 {
		t.Error("nil collector accessors")
	}

	c := NewCollector(Config{})
	if c.Interval() != DefaultInterval {
		t.Errorf("default interval: %v", c.Interval())
	}
	c.Registry().Counter("x").Set(1)
	c.Tick(time.Second)
	c.Tick(time.Second)             // duplicate timestamp: dropped
	c.Tick(500 * time.Millisecond)  // regression: dropped
	c.Tick(1500 * time.Millisecond) // advances
	snaps := c.Snapshots()
	if n := len(snaps); n != 2 {
		t.Fatalf("duplicate ticks must be dropped: %d snapshots", n)
	}
	if last := snaps[len(snaps)-1]; last.At != 1500*time.Millisecond {
		t.Errorf("last snapshot at %v, want 1.5s", last.At)
	}
}

func TestCollectorHealthStampsFiring(t *testing.T) {
	c := NewCollector(Config{})
	c.AddHealth(HealthReport{Epoch: 1})
	c.Registry().Gauge("backend_queue_depth", "backend", "be0").Set(300)
	c.Tick(time.Second)
	c.Tick(2 * time.Second)
	c.AddHealth(HealthReport{Epoch: 2})
	hs := c.Health()
	if len(hs) != 2 || hs[0].FiringAlerts == nil || len(hs[0].FiringAlerts) != 0 {
		t.Fatalf("health before any alert must carry an empty firing set: %+v", hs)
	}
	if len(hs[1].FiringAlerts) != 1 || hs[1].FiringAlerts[0] != "queue-saturation(be0)" {
		t.Errorf("health must carry the firing set: %+v", hs[1])
	}

	var buf bytes.Buffer
	if err := hs[1].WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "firing at plan time") {
		t.Errorf("health text: %q", buf.String())
	}
}

func TestHealthReportText(t *testing.T) {
	r := HealthReport{
		Epoch: 3, AtMS: 30000, GPUsDemanded: 5, GPUsAllocated: 4, GPUsCapacity: 8,
		SessionsMoved: 1,
		Placements: []trace.PlacementRecord{
			{Node: "gpu1", Backends: []string{"be1"}, Spatial: true, Occupancy: 0.5,
				Units: []trace.PlacedUnit{{Session: "s", Batch: 2, Rate: 30, Slice: 0.5}}},
			{Node: "gpu0", Backends: []string{"be0", "be2"}, DutyMS: 40, Occupancy: 0.75,
				Units: []trace.PlacedUnit{
					{Session: "t", Batch: 4, Rate: 50, Members: []string{"t1", "t2"}},
					{Session: "s", Batch: 8, Rate: 100},
				}},
			{Node: "gpu2", Backends: []string{"be3"},
				Units: []trace.PlacedUnit{{Session: "u", Batch: 16, Rate: 70}}},
		},
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "epoch 3 @ t=30.0s: 4/8 GPUs allocated (demand 5), 1 session move(s)\n" +
		"  s                        100.0 r/s at batch 8 on gpu0 (duty 40.0ms, occupancy 75%, headroom 25%, 2 replica(s))\n" +
		"  s                        30.0 r/s at batch 2 on gpu1 (duty 0.0ms, occupancy 50%, headroom 50%, 1 replica(s)), pinned to a 50% compute slice\n" +
		"  t                        50.0 r/s at batch 4 on gpu0 (duty 40.0ms, occupancy 75%, headroom 25%, 2 replica(s)), prefix group of 2\n" +
		"  u                        70.0 r/s at batch 16 on gpu2 (1 replica(s))\n"
	if got := buf.String(); got != want {
		t.Errorf("health text:\n%s\nwant:\n%s", got, want)
	}
}
