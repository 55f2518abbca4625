package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/obslog"
	"nexus/internal/scheduler"
	"nexus/internal/telemetry"
)

// spatialFleet deploys the camera-fleet workload (small model, tight SLO,
// low per-session rate — the spatial sweet spot) under one placement.
func spatialFleet(t *testing.T, placement scheduler.Placement, telem *telemetry.Config) *Deployment {
	t.Helper()
	d, err := New(Config{
		System: Nexus, Features: AllFeatures(),
		GPUs: 12, Seed: 7, Epoch: 10 * time.Second,
		Audit:            true,
		Placement:        placement,
		SliceGranularity: 4,
		Telemetry:        telem,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := d.AddSession(globalsched.SessionSpec{
			ID:      fmt.Sprintf("cam-%d", i),
			ModelID: model.GoogLeNetCar,
			SLO:     13 * time.Millisecond, ExpectedRate: 30,
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestSpatialEndToEnd drives the full stack under spatial placement:
// planning must pin the fleet to slices on far fewer GPUs than temporal
// duty cycles would, the data plane must serve it within SLO on gpusim
// partitions, and the audit log must tag the spatial placements.
func TestSpatialEndToEnd(t *testing.T) {
	d := spatialFleet(t, scheduler.PlaceSpatial, nil)
	bad, err := d.Run(15 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if bad > 0.02 {
		t.Fatalf("bad rate %.4f on slices; spatial serving misses SLOs", bad)
	}
	if gpus := d.AvgGPUsUsed(); gpus > 4.5 {
		t.Fatalf("spatial fleet used %.1f GPUs; temporal-like usage means slices were not planned", gpus)
	}
	spatialNodes, sliced := 0, 0
	for _, p := range d.Audit().Placements() {
		if !p.Spatial {
			continue
		}
		spatialNodes++
		for _, u := range p.Units {
			if u.Slice <= 0 || u.Slice > 1 {
				t.Fatalf("spatial node %s unit %s has slice %v", p.Node, u.Unit, u.Slice)
			}
			sliced++
		}
	}
	if spatialNodes == 0 || sliced == 0 {
		t.Fatal("audit log recorded no spatial placements")
	}
}

// TestSpatialTelemetryGauges checks the per-slice occupancy gauges appear
// (and only under spatial placement).
func TestSpatialTelemetryGauges(t *testing.T) {
	d := spatialFleet(t, scheduler.PlaceSpatial, &telemetry.Config{Interval: 500 * time.Millisecond})
	if _, err := d.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	snaps := d.Telemetry().Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no telemetry snapshots")
	}
	last := snaps[len(snaps)-1]
	fracs := last.Keys("backend_slice_frac")
	if len(fracs) == 0 {
		t.Fatal("no backend_slice_frac gauges under spatial placement")
	}
	busy := false
	for _, key := range fracs {
		if v, _ := last.Gauge(key); v != 0.25 {
			t.Errorf("%s = %v, want quarter slices", key, v)
		}
		occKey := strings.Replace(key, "backend_slice_frac", "backend_slice_occupancy", 1)
		if v, ok := last.Gauge(occKey); !ok {
			t.Errorf("missing %s", occKey)
		} else if v > 0 {
			busy = true
		}
	}
	if !busy {
		t.Error("every slice occupancy gauge is zero over a served window")
	}

	// A temporal deployment must not grow the metric key set.
	dt := spatialFleet(t, scheduler.PlaceTemporal, &telemetry.Config{Interval: 500 * time.Millisecond})
	if _, err := dt.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	tsnaps := dt.Telemetry().Snapshots()
	tlast := tsnaps[len(tsnaps)-1]
	if keys := tlast.Keys("backend_slice_frac"); len(keys) != 0 {
		t.Fatalf("temporal deployment exported slice gauges: %v", keys)
	}
}

// TestTemporalAuditHasNoSpatialFields pins the no-op contract at the
// cluster level: a deployment with Placement left zero serializes an audit
// log byte-identical to one predating the feature (no spatial flags, no
// slice fields).
func TestTemporalAuditHasNoSpatialFields(t *testing.T) {
	d := spatialFleet(t, scheduler.PlaceTemporal, nil)
	if _, err := d.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := obslog.Write(&sb, obslog.Log{Audit: d.Audit()}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "\"spatial\"") || strings.Contains(out, "\"slice\"") {
		t.Fatal("temporal audit log serialized spatial fields; goldens would change")
	}
}
