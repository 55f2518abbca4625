package scheduler

import (
	"testing"
	"time"

	"nexus/internal/profiler"
)

// smallProfile models a LeNet-class model: sub-millisecond latency, low SM
// saturation — the spatial-sharing sweet spot.
func smallProfile(t *testing.T) *profiler.Profile {
	t.Helper()
	p := &profiler.Profile{
		ModelID:      "tiny",
		GPU:          profiler.GTX1080Ti,
		Alpha:        20 * time.Microsecond,
		Beta:         400 * time.Microsecond,
		MaxBatch:     64,
		MemBase:      1 << 30,
		MemPerItem:   1 << 20,
		SMSaturation: 0.1,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSpatialSliceChoosesSmallestSufficient(t *testing.T) {
	p := smallProfile(t)
	s := Session{ID: "s", ModelID: "tiny", SLO: 50 * time.Millisecond, Rate: 100}
	frac, batch, ok := spatialSlice(s, p, 8)
	if !ok {
		t.Fatal("no slice found for an easy load")
	}
	// A 1/8 slice runs this model at ~sat/frac = 0.1/0.125 < 1 slowdown
	// (interference only): the smallest slice should do.
	if frac != 0.125 {
		t.Fatalf("slice = %v, want 0.125", frac)
	}
	if batch < 1 {
		t.Fatalf("batch = %d", batch)
	}
}

func TestSpatialSliceInfeasibleSLO(t *testing.T) {
	p := smallProfile(t)
	// SLO below even the full-device batch-1 latency: no slice works.
	s := Session{ID: "s", ModelID: "tiny", SLO: 100 * time.Microsecond, Rate: 10}
	if _, _, ok := spatialSlice(s, p, 8); ok {
		t.Fatal("slice found for infeasible SLO")
	}
}

func TestScheduleSpatialTemporalIsNoOp(t *testing.T) {
	residue := []Session{{ID: "s", ModelID: "tiny", SLO: 50 * time.Millisecond, Rate: 10}}
	nodes, kept, err := scheduleSpatial(residue, map[string]*profiler.Profile{"tiny": smallProfile(t)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 0 {
		t.Fatalf("temporal placement produced %d spatial nodes", len(nodes))
	}
	if len(kept) != 1 || kept[0].ID != "s" {
		t.Fatalf("residue not passed through: %+v", kept)
	}
}

func TestPackSpatialPlanValidates(t *testing.T) {
	p := smallProfile(t)
	profiles := map[string]*profiler.Profile{"tiny": p}
	sessions := []Session{
		{ID: "s1", ModelID: "tiny", SLO: 50 * time.Millisecond, Rate: 120},
		{ID: "s2", ModelID: "tiny", SLO: 40 * time.Millisecond, Rate: 90},
		{ID: "s3", ModelID: "tiny", SLO: 60 * time.Millisecond, Rate: 200},
	}
	for _, place := range []Placement{PlaceSpatial, PlaceHybrid} {
		cfg := Config{Placement: place, GPUMemBytes: 11 << 30}
		plan, err := Pack(sessions, profiles, cfg)
		if err != nil {
			t.Fatalf("%v: %v", place, err)
		}
		if err := Validate(plan, sessions, profiles, cfg); err != nil {
			t.Fatalf("%v: %v", place, err)
		}
	}
}

func TestPackSpatialBeatsTemporalOnSmallTightSessions(t *testing.T) {
	// The spatial sweet spot: low-rate sessions of a launch-overhead-
	// dominated small model under a tight SLO. The clamped duty cycle
	// (SLO − ℓ(1)) cannot fit ℓ(1), so temporal packing dedicates nearly a
	// whole GPU per session; a 1/8 slice serves the same load with room to
	// spare because the slice idles between sparse batches.
	p := &profiler.Profile{
		ModelID:      "tiny",
		GPU:          profiler.GTX1080Ti,
		Alpha:        50 * time.Microsecond,
		Beta:         2 * time.Millisecond,
		MaxBatch:     64,
		MemBase:      1 << 30,
		MemPerItem:   1 << 20,
		SMSaturation: 0.1,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	profiles := map[string]*profiler.Profile{"tiny": p}
	var sessions []Session
	for i := 0; i < 24; i++ {
		sessions = append(sessions, Session{
			ID: "s" + string(rune('a'+i)), ModelID: "tiny",
			SLO: 5 * time.Millisecond, Rate: 100,
		})
	}
	temporal, err := Pack(sessions, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	spatial, err := Pack(sessions, profiles, Config{Placement: PlaceSpatial})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(spatial, sessions, profiles, Config{Placement: PlaceSpatial}); err != nil {
		t.Fatal(err)
	}
	if spatial.GPUCount() >= temporal.GPUCount() {
		t.Fatalf("spatial plan uses %d GPUs, temporal %d — spatial should win",
			spatial.GPUCount(), temporal.GPUCount())
	}
	hybrid, err := Pack(sessions, profiles, Config{Placement: PlaceHybrid})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(hybrid, sessions, profiles, Config{Placement: PlaceHybrid}); err != nil {
		t.Fatal(err)
	}
	if hybrid.GPUCount() > temporal.GPUCount() {
		t.Fatalf("hybrid plan uses %d GPUs > temporal %d", hybrid.GPUCount(), temporal.GPUCount())
	}
}

func TestPackHybridKeepsSaturatedSessionsTemporal(t *testing.T) {
	// A heavy, saturating model gains nothing from slices: hybrid must
	// reproduce the temporal plan's saturated nodes.
	profiles := table2Profiles(t)
	sessions := table2Sessions(320, 0, 0) // 2 saturated GPUs for A
	plan, err := Pack(sessions, profiles, Config{Placement: PlaceHybrid})
	if err != nil {
		t.Fatal(err)
	}
	sat := 0
	for _, g := range plan.GPUs {
		if g.Spatial {
			t.Fatalf("saturating session landed on a spatial node: %+v", g)
		}
		if g.Saturated {
			sat++
		}
	}
	if sat != 2 {
		t.Fatalf("saturated nodes = %d, want 2", sat)
	}
}

func TestSpatialNodeOccupancyIsSliceSum(t *testing.T) {
	g := &GPUPlan{Spatial: true, Allocs: []Alloc{
		{SessionID: "a", ModelID: "tiny", Batch: 1, Rate: 1, Slice: 0.25},
		{SessionID: "b", ModelID: "tiny", Batch: 1, Rate: 1, Slice: 0.5},
	}}
	occ, err := g.Occupancy(nil)
	if err != nil {
		t.Fatal(err)
	}
	if occ != 0.75 {
		t.Fatalf("occupancy = %v, want 0.75", occ)
	}
}

func TestValidateRejectsOverstuffedSpatialNode(t *testing.T) {
	p := smallProfile(t)
	profiles := map[string]*profiler.Profile{"tiny": p}
	sessions := []Session{
		{ID: "a", ModelID: "tiny", SLO: 50 * time.Millisecond, Rate: 10},
		{ID: "b", ModelID: "tiny", SLO: 50 * time.Millisecond, Rate: 10},
	}
	plan := &Plan{GPUs: []GPUPlan{{ID: "n0", Spatial: true, Allocs: []Alloc{
		{SessionID: "a", ModelID: "tiny", Batch: 1, Rate: 10, Slice: 0.75},
		{SessionID: "b", ModelID: "tiny", Batch: 1, Rate: 10, Slice: 0.5},
	}}}}
	if err := Validate(plan, sessions, profiles, Config{Placement: PlaceSpatial}); err == nil {
		t.Fatal("slices summing to 1.25 accepted")
	}
}

func TestValidateRejectsUnsustainableSlice(t *testing.T) {
	p := smallProfile(t)
	profiles := map[string]*profiler.Profile{"tiny": p}
	// A 1/8 slice of this model serves ~O(1000) r/s at batch 1; demand far
	// beyond its service rate must be rejected.
	sessions := []Session{{ID: "a", ModelID: "tiny", SLO: 50 * time.Millisecond, Rate: 1e6}}
	plan := &Plan{GPUs: []GPUPlan{{ID: "n0", Spatial: true, Allocs: []Alloc{
		{SessionID: "a", ModelID: "tiny", Batch: 1, Rate: 1e6, Slice: 0.125},
	}}}}
	if err := Validate(plan, sessions, profiles, Config{Placement: PlaceSpatial}); err == nil {
		t.Fatal("unsustainable slice accepted")
	}
}

func TestSliceDutyClampsToSLO(t *testing.T) {
	// Gather window longer than the SLO allows: clamp to slo - lat.
	if got := SliceDuty(10*time.Millisecond, 30*time.Millisecond, 100, 10); got != 20*time.Millisecond {
		t.Fatalf("SliceDuty = %v, want 20ms", got)
	}
	// Fast gather stays as-is: 10 items at 1000 r/s = 10ms.
	if got := SliceDuty(10*time.Millisecond, 100*time.Millisecond, 10, 1000); got != 10*time.Millisecond {
		t.Fatalf("SliceDuty = %v, want 10ms", got)
	}
}
