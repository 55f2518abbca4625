package cluster_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/faults"
	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/scheduler"
	"nexus/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// healthRun is one small deployment whose every per-epoch health report
// the golden pins.
type healthRun struct {
	name   string
	cfg    cluster.Config
	deploy func(*cluster.Deployment) error
	crash  bool // crash be0 mid-run
}

// addSessions deploys standalone sessions of the given models, one per
// model, at rates rising by 40 r/s from base.
func addSessions(ids []string, slo time.Duration, base float64) func(*cluster.Deployment) error {
	return func(d *cluster.Deployment) error {
		for i, id := range ids {
			if err := d.AddSession(globalsched.SessionSpec{
				ID: fmt.Sprintf("s%d-%s", i, id), ModelID: id,
				SLO: slo, ExpectedRate: base + 40*float64(i),
			}, nil); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestHealthReportsGolden pins the text of every epoch's scheduler health
// report across placements (temporal, spatial, hybrid), a sharded planner,
// the batch-oblivious baselines, prefix groups and a crash.
func TestHealthReportsGolden(t *testing.T) {
	mixed := []string{model.GoogLeNetCar, model.ResNet50, model.VGGFace, model.GoogLeNetCar}
	cams := make([]string, 8)
	for i := range cams {
		cams[i] = model.GoogLeNetCar
	}
	base := func(sys cluster.System) cluster.Config {
		return cluster.Config{
			System: sys, Features: cluster.AllFeatures(), GPUs: 8, Seed: 3,
			Epoch: 4 * time.Second, Telemetry: &telemetry.Config{Interval: time.Second},
		}
	}
	with := func(cfg cluster.Config, edit func(*cluster.Config)) cluster.Config {
		edit(&cfg)
		return cfg
	}
	runs := []healthRun{
		{name: "temporal", cfg: base(cluster.Nexus), deploy: addSessions(mixed, 100*time.Millisecond, 80)},
		{name: "spatial", cfg: with(base(cluster.Nexus), func(c *cluster.Config) {
			c.Placement, c.SliceGranularity = scheduler.PlaceSpatial, 4
		}), deploy: addSessions(cams, 13*time.Millisecond, 20)},
		{name: "hybrid", cfg: with(base(cluster.Nexus), func(c *cluster.Config) {
			c.Placement, c.SliceGranularity = scheduler.PlaceHybrid, 4
		}), deploy: addSessions(append(cams[:4:4], model.ResNet50, model.VGGFace), 40*time.Millisecond, 30)},
		{name: "sharded", cfg: with(base(cluster.Nexus), func(c *cluster.Config) {
			c.PlannerShards, c.PlanHysteresis = 2, 0.05
		}), deploy: addSessions(append(mixed, mixed...), 100*time.Millisecond, 60)},
		{name: "clipper", cfg: with(base(cluster.Clipper), func(c *cluster.Config) { c.FixedCluster = true }),
			deploy: addSessions(mixed, 100*time.Millisecond, 80)},
		{name: "tfserving", cfg: with(base(cluster.TFServing), func(c *cluster.Config) { c.FixedCluster = true }),
			deploy: addSessions(mixed, 100*time.Millisecond, 80)},
		{name: "prefix-groups", cfg: base(cluster.Nexus), deploy: func(d *cluster.Deployment) error {
			_, err := apps.Deploy(d, apps.GameSLO(3, 600, 50*time.Millisecond))
			return err
		}},
		{name: "crash", cfg: with(base(cluster.Nexus), func(c *cluster.Config) {
			c.Heartbeat, c.LeaseMisses, c.RetryBudget = 100*time.Millisecond, 3, 1
		}), deploy: addSessions(mixed, 100*time.Millisecond, 300), crash: true},
	}
	var out bytes.Buffer
	for _, r := range runs {
		d, err := cluster.New(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.deploy(d); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if r.crash {
			in := faults.New(d.Clock, d, 3)
			if err := in.Schedule(faults.Script{{At: 6 * time.Second, Kind: faults.Crash, Backend: "be0"}}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := d.Run(12 * time.Second); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		fmt.Fprintf(&out, "== %s\n", r.name)
		for _, h := range d.Telemetry().Health() {
			if err := h.WriteText(&out); err != nil {
				t.Fatal(err)
			}
		}
	}

	path := filepath.Join("testdata", "health.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rewrite with -update)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("health reports drifted from %s (rewrite with -update after an intended change):\n%s", path, out.String())
	}
}
