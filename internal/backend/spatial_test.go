package backend

import (
	"testing"
	"time"

	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/session"
	"nexus/internal/simclock"
)

// sliceUnitProfile is a small model's profile already scaled for the slice
// it runs on, as globalsched hands it to the backend.
func sliceUnitProfile() *profiler.Profile {
	return &profiler.Profile{
		ModelID: "m", GPU: profiler.GTX1080Ti,
		Alpha: 1 * time.Millisecond, Beta: 4 * time.Millisecond,
		MaxBatch: 16,
		MemBase:  1 << 30, MemPerItem: 1 << 20,
	}
}

func TestSpatialUnitsRunConcurrently(t *testing.T) {
	// Two half-GPU units under RoundRobin discipline: spatial units bypass
	// the round-robin round and run on their partitions concurrently, so
	// simultaneous single-item batches overlap instead of serializing.
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	doneAt := map[session.Handle]time.Duration{}
	be := New("b", clock, dev, Config{Discipline: RoundRobin, Overlap: true},
		func(r Request, o Outcome, at time.Duration) { doneAt[r.Session] = at })
	units := []Unit{
		{ID: "u1", Profile: sliceUnitProfile(), TargetBatch: 1, Slice: 0.5},
		{ID: "u2", Profile: sliceUnitProfile(), TargetBatch: 1, Slice: 0.5},
	}
	if err := be.Configure(units); err != nil {
		t.Fatal(err)
	}
	if got := len(dev.Partitions()); got != 2 {
		t.Fatalf("device has %d partitions, want 2", got)
	}
	clock.RunUntil(2 * time.Second) // model loads
	now := clock.Now()
	_ = be.Enqueue("u1", Request{ID: 1, Session: 1, Arrival: now, Deadline: now + time.Second})
	_ = be.Enqueue("u2", Request{ID: 2, Session: 2, Arrival: now, Deadline: now + time.Second})
	clock.Run()
	if len(doneAt) != 2 {
		t.Fatalf("completed %d requests, want 2", len(doneAt))
	}
	// Serialized exclusive execution would finish the second batch at
	// ~2*(pre+gpu+post). Concurrent slices finish both within one batch
	// time plus the co-residency interference tax.
	batchTime := 5 * time.Millisecond * 105 / 100 // ℓ(1) * (1 + 0.05 interference)
	for s, at := range doneAt {
		if e := at - now; e > batchTime+8*time.Millisecond {
			t.Fatalf("session %d finished %v after enqueue; slices did not overlap", s, e)
		}
	}
}

func TestSpatialSliceStats(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	be := New("b", clock, dev, Config{}, func(Request, Outcome, time.Duration) {})
	if err := be.Configure([]Unit{
		{ID: "u1", Profile: sliceUnitProfile(), TargetBatch: 1, Slice: 0.25},
		{ID: "u2", Profile: sliceUnitProfile(), TargetBatch: 1}, // temporal
	}); err != nil {
		t.Fatal(err)
	}
	stats := be.SliceStats()
	if len(stats) != 1 {
		t.Fatalf("SliceStats = %+v, want exactly the spatial unit", stats)
	}
	if stats[0].UnitID != "u1" || stats[0].Frac != 0.25 {
		t.Fatalf("SliceStats[0] = %+v", stats[0])
	}
}

func TestSpatialReconfigureSwapsPartition(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	be := New("b", clock, dev, Config{}, func(Request, Outcome, time.Duration) {})
	p := sliceUnitProfile()
	if err := be.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: 1, Slice: 0.5}}); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	// Grow the slice: the old partition is released, a fresh one attached.
	if err := be.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: 1, Slice: 0.75}}); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	parts := dev.Partitions()
	if len(parts) != 1 {
		t.Fatalf("device has %d partitions after swap, want 1", len(parts))
	}
	if parts[0].Frac != 0.75 {
		t.Fatalf("partition frac = %v, want 0.75", parts[0].Frac)
	}
	// Back to temporal: the partition is handed back entirely.
	if err := be.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: 1}}); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	if got := len(dev.Partitions()); got != 0 {
		t.Fatalf("device still holds %d partitions after temporal reconfigure", got)
	}
	if got := len(be.SliceStats()); got != 0 {
		t.Fatalf("SliceStats still reports %d slices", got)
	}
}

func TestSpatialUnitRemovalReleasesPartition(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	be := New("b", clock, dev, Config{}, func(Request, Outcome, time.Duration) {})
	if err := be.Configure([]Unit{{ID: "u", Profile: sliceUnitProfile(), TargetBatch: 1, Slice: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := be.Configure(nil); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	if got := len(dev.Partitions()); got != 0 {
		t.Fatalf("device still holds %d partitions after removal", got)
	}
}

func TestSpatialFailReleasesPartitions(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	be := New("b", clock, dev, Config{}, func(Request, Outcome, time.Duration) {})
	if err := be.Configure([]Unit{{ID: "u", Profile: sliceUnitProfile(), TargetBatch: 1, Slice: 0.5}}); err != nil {
		t.Fatal(err)
	}
	be.Fail()
	clock.Run()
	if got := len(dev.Partitions()); got != 0 {
		t.Fatalf("failed backend still holds %d partitions", got)
	}
}

// TestSpatialReconfigureDuringPreprocessing: an epoch that removes a spatial
// unit or changes its slice while one of its batches is still in CPU
// preprocessing releases the partition the batch started on. The batch must
// still reach the GPU — on the unit's current partition, or on the whole
// device once it has none — and every request must complete exactly once.
func TestSpatialReconfigureDuringPreprocessing(t *testing.T) {
	p := sliceUnitProfile()
	p.PreprocCPU = 5 * time.Millisecond
	for _, tc := range []struct {
		name  string
		units []Unit
	}{
		{"removed", nil},
		{"slice changed", []Unit{{ID: "u", Profile: p, TargetBatch: 4, Slice: 0.25}}},
		{"slice dropped", []Unit{{ID: "u", Profile: p, TargetBatch: 4}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := simclock.New()
			dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
			completed := map[uint64]int{}
			be := New("b", clock, dev, Config{Overlap: true},
				func(r Request, o Outcome, at time.Duration) { completed[r.ID]++ })
			if err := be.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: 4, Slice: 0.5}}); err != nil {
				t.Fatal(err)
			}
			clock.RunUntil(2 * time.Second) // model load
			now := clock.Now()
			const n = 6
			for i := uint64(1); i <= n; i++ {
				if err := be.Enqueue("u", Request{ID: i, Session: 1, Arrival: now, Deadline: now + time.Second}); err != nil {
					t.Fatal(err)
				}
			}
			clock.RunUntil(now + time.Millisecond)
			if batches, _ := be.BatchStats(); batches != 1 {
				t.Fatalf("%d batches started before the reconfiguration, want 1 in preprocessing", batches)
			}
			if err := be.Configure(tc.units); err != nil {
				t.Fatal(err)
			}
			clock.Run()
			if len(completed) != n {
				t.Fatalf("%d of %d requests completed: %v", len(completed), n, completed)
			}
			for id, c := range completed {
				if c != 1 {
					t.Fatalf("request %d completed %d times", id, c)
				}
			}
		})
	}
}
