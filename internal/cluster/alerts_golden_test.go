package cluster_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/faults"
	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/telemetry"
	"nexus/internal/workload"
)

// alertRun is one short chaos deployment whose alert stream the golden
// pins: one resnet50 session under a fault script.
type alertRun struct {
	name   string
	gpus   int
	fixed  bool // FixedCluster: crashed backends rejoin, surges queue
	rate   float64
	slo    time.Duration
	script faults.Script
}

// TestAlertsGolden pins the alert engine's output under the default rules:
// the alert log and every epoch's firing set, on short deployments that
// between them trip every rule.
func TestAlertsGolden(t *testing.T) {
	const ms = time.Millisecond
	runs := []alertRun{
		// A permanent crash burns the session's error budget.
		{name: "crash", gpus: 4, rate: 1500, slo: 100 * ms, script: faults.Script{
			{At: 9 * time.Second, Kind: faults.Crash, Backend: "be0"},
		}},
		// Two crash-restarts of one backend: down, up at the next epoch,
		// down again — three up/down transitions inside 10 s.
		{name: "flap", gpus: 4, fixed: true, rate: 1500, slo: 100 * ms, script: faults.Script{
			{At: 6 * time.Second, Kind: faults.Crash, Backend: "be1", Duration: time.Second},
			{At: 11 * time.Second, Kind: faults.Crash, Backend: "be1", Duration: time.Second},
		}},
		// A 3x slower GPU among six; be2 runs larger batches and is an
		// outlier without any fault.
		{name: "straggler", gpus: 6, fixed: true, rate: 3000, slo: 100 * ms, script: faults.Script{
			{At: 6 * time.Second, Kind: faults.Straggler, Backend: "be0", Factor: 3, Duration: 4 * time.Second},
		}},
		// A 3x surge on a fixed cluster with a loose SLO queues hundreds of
		// requests per backend.
		{name: "surge", gpus: 4, fixed: true, rate: 1500, slo: 400 * ms, script: faults.Script{
			{At: 6 * time.Second, Kind: faults.Surge, Factor: 3, Duration: 3 * time.Second},
		}},
	}
	fired := map[string]bool{}
	var out bytes.Buffer
	for _, r := range runs {
		d, err := cluster.New(cluster.Config{
			System: cluster.Nexus, Features: cluster.AllFeatures(), GPUs: r.gpus, Seed: 7,
			Epoch: 5 * time.Second, FixedCluster: r.fixed,
			Heartbeat: 100 * time.Millisecond, LeaseMisses: 3, RetryBudget: 1,
			Telemetry: &telemetry.Config{Interval: 250 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddSession(globalsched.SessionSpec{
			ID: "s", ModelID: model.ResNet50, SLO: r.slo, ExpectedRate: r.rate,
		}, workload.Uniform{Rate: r.rate}); err != nil {
			t.Fatal(err)
		}
		in := faults.New(d.Clock, d, 7)
		if err := in.Schedule(r.script); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(16 * time.Second); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&out, "== %s\n", r.name)
		c := d.Telemetry()
		for _, a := range c.Alerts() {
			fired[a.Rule] = true
			fmt.Fprintf(&out, "%9.1fms %-8s %-16s %-4s %g", a.AtMS, a.State, a.Rule, a.Target, a.Value)
			if a.Detail != "" {
				fmt.Fprintf(&out, "  %s", a.Detail)
			}
			out.WriteByte('\n')
		}
		for _, h := range c.Health() {
			fmt.Fprintf(&out, "epoch %d @ %.1fs firing %v\n", h.Epoch, h.AtMS/1000, h.FiringAlerts)
		}
	}
	for _, rule := range []string{"slo-burn-rate", "queue-saturation", "gpu-straggler", "backend-flap"} {
		if !fired[rule] {
			t.Errorf("no run fired %s", rule)
		}
	}

	path := filepath.Join("testdata", "alerts.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rewrite with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("alerts drifted from %s (rewrite with -update after an intended change):\n%s", path, out.String())
	}
}
