package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"nexus/internal/faults"
	"nexus/internal/globalsched"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/obslog"
	"nexus/internal/runner"
	"nexus/internal/telemetry"
)

func TestTelemetryDisabledByDefault(t *testing.T) {
	d, err := New(Config{System: Nexus, Features: AllFeatures(), GPUs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Telemetry() != nil {
		t.Fatal("telemetry should be nil unless enabled")
	}
}

// TestTelemetryCapturesClusterState checks the sampler against the
// simulation's own ledgers: final counters must agree exactly with the
// metrics recorder and scheduler, and every plane's gauges must be
// present.
func TestTelemetryCapturesClusterState(t *testing.T) {
	d, err := New(Config{
		System: Nexus, Features: AllFeatures(), GPUs: 2, Seed: 1,
		Epoch:     10 * time.Second,
		Telemetry: &telemetry.Config{Interval: 250 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddSession(globalsched.SessionSpec{
		ID: "s", ModelID: model.GoogLeNetCar, SLO: 100 * time.Millisecond, ExpectedRate: 120,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	c := d.Telemetry()
	if c == nil {
		t.Fatal("telemetry not enabled")
	}
	snaps := c.Snapshots()
	if len(snaps) < 10 {
		t.Fatalf("got %d snapshots over an 8s run at 250ms", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i].At <= snaps[i-1].At {
			t.Fatalf("snapshot times not strictly increasing: %v then %v", snaps[i-1].At, snaps[i].At)
		}
	}
	last := snaps[len(snaps)-1]

	// Session counters reconcile exactly with the recorder.
	s := d.Recorder.Session("s")
	checks := map[string]float64{
		telemetry.Key("session_sent_total", "session", "s"): float64(s.Sent),
		telemetry.Key("session_good_total", "session", "s"): float64(s.Good()),
		telemetry.Key("session_bad_total", "session", "s"):  float64(s.Bad()),
		"sched_epochs_total": float64(d.Sched.Epochs()),
	}
	for key, want := range checks {
		if got, ok := last.Counter(key); !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", key, got, ok, want)
		}
	}
	if s.Sent == 0 || s.Good() == 0 {
		t.Fatal("run served nothing; test is vacuous")
	}

	// Data-plane gauges and windows exist for every backend in the plan.
	if len(last.Keys("backend_up")) == 0 {
		t.Error("no backend_up gauges sampled")
	}
	for _, key := range last.Keys("backend_up") {
		if v, _ := last.Gauge(key); v != 1 {
			t.Errorf("%s = %v, want 1 (all backends healthy)", key, v)
		}
	}
	if len(last.Keys("backend_exec_ms")) == 0 {
		t.Error("no execute-latency windows observed")
	}
	if len(last.Keys("frontend_dispatch_total")) == 0 {
		t.Error("no frontend dispatch counters sampled")
	}
	if v, ok := last.Gauge("cluster_gpus_capacity"); !ok || v != 2 {
		t.Errorf("cluster_gpus_capacity = %v (present %v)", v, ok)
	}

	// The control plane produced per-epoch health reports with allocations.
	health := c.Health()
	if len(health) == 0 {
		t.Fatal("no scheduler health reports")
	}
	h := health[len(health)-1]
	if h.GPUsCapacity != 2 || len(h.Allocs) == 0 {
		t.Errorf("health report: %+v", h)
	}
	if h.Allocs[0].Session != "s" || h.Allocs[0].Reason == "" {
		t.Errorf("health alloc lacks an explanation: %+v", h.Allocs[0])
	}
}

// TestTelemetryDeterminism asserts the full telemetry output — snapshot
// stream, alert log, and health reports — is byte-identical across runs
// and across runner parallelism, like the trace plane. CI runs this under
// -race.
func TestTelemetryDeterminism(t *testing.T) {
	runTelem := func(workers int) []byte {
		prev := runner.SetDefaultWorkers(workers)
		defer runner.SetDefaultWorkers(prev)
		d, err := New(Config{
			System: Nexus, Features: AllFeatures(), GPUs: 2, Seed: 42,
			Epoch:     10 * time.Second,
			Telemetry: &telemetry.Config{Interval: 500 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddSession(globalsched.SessionSpec{
			ID: "s", ModelID: model.GoogLeNetCar, SLO: 100 * time.Millisecond, ExpectedRate: 120,
		}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(8 * time.Second); err != nil {
			t.Fatal(err)
		}
		c := d.Telemetry()
		var buf bytes.Buffer
		if err := obslog.Write(&buf, obslog.Log{Snapshots: c.Snapshots(), Alerts: c.Alerts()}); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&buf).Encode(c.Health()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := runTelem(1)
	if again := runTelem(1); !bytes.Equal(serial, again) {
		t.Fatal("telemetry differs across identical serial runs")
	}
	if par := runTelem(8); !bytes.Equal(serial, par) {
		t.Fatal("telemetry differs between workers=1 and workers=8")
	}
}

// TestChaosBurnRateAlert is the acceptance criterion tying alerting to
// fault injection: crashing a backend mid-run must raise a burn-rate alert
// for the session, timestamped after the fault but before goodput has
// recovered — the alert would have paged before the cluster healed itself.
func TestChaosBurnRateAlert(t *testing.T) {
	epoch := 5 * time.Second
	d := chaosDeployment(t, Config{
		System: Nexus, Features: AllFeatures(), GPUs: 4, Seed: 7, Epoch: epoch,
		Heartbeat: 100 * time.Millisecond, LeaseMisses: 3, RetryBudget: 1,
		Telemetry: &telemetry.Config{
			Interval: 250 * time.Millisecond,
			Rules: []telemetry.Rule{
				telemetry.BurnRate{Short: 500 * time.Millisecond, Long: 2 * time.Second, Threshold: 2},
				telemetry.BackendFlap{},
			},
		},
	})
	in := faults.New(d.Clock, d, 7)
	if err := in.Schedule(faults.Script{{At: chaosFaultAt, Kind: faults.Crash, Backend: "be0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	rec, ok := metrics.RecoveryTime(d.GoodEvts, chaosFaultAt, 3*time.Second, 0.95)
	if !ok {
		t.Fatal("goodput never recovered; chaos baseline broken")
	}

	c := d.Telemetry()
	var burn *telemetry.Alert
	for i, a := range c.Alerts() {
		if a.Rule == "slo-burn-rate" && a.Target == "s" && a.State == "firing" {
			burn = &c.Alerts()[i]
			break
		}
	}
	if burn == nil {
		t.Fatalf("no burn-rate alert fired for the crash; alert log: %+v", c.Alerts())
	}
	if burn.At < chaosFaultAt {
		t.Fatalf("burn-rate alert at %v predates the fault at %v", burn.At, chaosFaultAt)
	}
	if recoveredAt := chaosFaultAt + rec; burn.At >= recoveredAt {
		t.Fatalf("burn-rate alert at %v only after recovery at %v — too slow to page",
			burn.At, recoveredAt)
	}
	// No alert may fire before the fault: the healthy phase is quiet.
	for _, a := range c.Alerts() {
		if a.At < chaosFaultAt {
			t.Fatalf("alert before the fault: %+v", a)
		}
	}
}
