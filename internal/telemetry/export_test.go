package telemetry

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// sampleCollector builds a collector with one tick of representative data.
func sampleCollector(t *testing.T) *Collector {
	t.Helper()
	c := NewCollector(Config{Interval: 500 * time.Millisecond, Rules: []Rule{}})
	r := c.Registry()
	r.Counter("session_good_total", "session", "s").Set(120)
	r.Gauge("backend_queue_depth", "backend", "be0").Set(7)
	r.Window("backend_exec_ms", "backend", "be0").Observe(25 * time.Millisecond)
	c.Tick(time.Second)
	return c
}

func TestWritePrometheus(t *testing.T) {
	c := sampleCollector(t)
	s, ok := c.Latest()
	if !ok {
		t.Fatal("no snapshot")
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, &s); err != nil {
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
	// Exactly one TYPE header per family.
	if n := strings.Count(out, "# TYPE nexus_session_good_total "); n != 1 {
		t.Errorf("want one TYPE header, got %d", n)
	}
}

func TestHandler(t *testing.T) {
	c := NewCollector(Config{})
	h := Handler(c)

	// Before any tick: /metrics is 503, not an empty 200 a scraper would
	// silently record as all-zeros.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 503 {
		t.Errorf("pre-tick /metrics: %d, want 503", rec.Code)
	}

	c.Registry().Gauge("sched_gpus_allocated").Set(3)
	c.Tick(time.Second)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type: %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "nexus_sched_gpus_allocated 3") {
		t.Errorf("/metrics body:\n%s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/alerts", nil))
	if rec.Code != 200 {
		t.Errorf("/alerts: %d", rec.Code)
	}

	c.AddHealth(HealthReport{Epoch: 1, AtMS: 5000, GPUsAllocated: 2, GPUsCapacity: 4})
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/health", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "epoch 1") {
		t.Errorf("/health: %d %q", rec.Code, rec.Body.String())
	}
}

func TestCollectorLifecycle(t *testing.T) {
	var nilC *Collector
	nilC.Tick(time.Second) // all nil-safe
	if nilC.Registry() != nil || nilC.Snapshots() != nil || nilC.Alerts() != nil {
		t.Error("nil collector must return nils")
	}
	if _, ok := nilC.Latest(); ok {
		t.Error("nil collector has no latest")
	}
	nilC.AddHealth(HealthReport{})
	if nilC.Interval() != 0 || nilC.WallTimings() {
		t.Error("nil collector config accessors")
	}

	c := NewCollector(Config{})
	if c.Interval() != DefaultInterval {
		t.Errorf("default interval: %v", c.Interval())
	}
	c.Registry().Counter("x").Add(1)
	c.Tick(time.Second)
	c.Tick(time.Second)             // duplicate timestamp: dropped
	c.Tick(500 * time.Millisecond)  // regression: dropped
	c.Tick(1500 * time.Millisecond) // advances
	if n := len(c.Snapshots()); n != 2 {
		t.Errorf("duplicate ticks must be dropped: %d snapshots", n)
	}
	if s, ok := c.Latest(); !ok || s.At != 1500*time.Millisecond {
		t.Errorf("latest: %+v %v", s.At, ok)
	}
}

func TestCollectorHealthStampsFiring(t *testing.T) {
	c := NewCollector(Config{Rules: []Rule{QueueSaturation{Limit: 10, Consecutive: 1}}})
	c.Registry().Gauge("backend_queue_depth", "backend", "be0").Set(50)
	c.Tick(time.Second)
	if len(c.Firing()) != 1 {
		t.Fatalf("firing: %v", c.Firing())
	}
	c.AddHealth(HealthReport{Epoch: 2})
	hs := c.Health()
	if len(hs) != 1 || len(hs[0].FiringAlerts) != 1 || hs[0].FiringAlerts[0] != "queue-saturation(be0)" {
		t.Errorf("health must carry the firing set: %+v", hs)
	}

	var buf bytes.Buffer
	if err := c.WriteAlertsText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "queue-saturation(be0)") {
		t.Errorf("alert text: %q", buf.String())
	}
	buf.Reset()
	if err := c.WriteHealthText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "firing at plan time") {
		t.Errorf("health text: %q", buf.String())
	}
}

func TestHealthReportText(t *testing.T) {
	r := HealthReport{
		Epoch: 3, AtMS: 30000, GPUsDemanded: 5, GPUsAllocated: 4, GPUsCapacity: 8,
		SessionsMoved: 1, PlanWallMS: 0.42,
		Allocs: []SessionAlloc{{Session: "s", Node: "gpu0", Reason: "100.0 r/s at batch 8"}},
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"epoch 3 @ t=30.0s", "4/8 GPUs allocated (demand 5)", "planned in 0.42ms", "100.0 r/s at batch 8"} {
		if !strings.Contains(out, want) {
			t.Errorf("health text missing %q:\n%s", want, out)
		}
	}
}
