package gpusim

import (
	"math"
	"testing"
	"time"

	"nexus/internal/profiler"
)

func TestPartitionFractionAccounting(t *testing.T) {
	_, d := newDev(Exclusive)
	a, err := d.Partition("a", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// NaN fails every comparison. Attached, it would make the used sum NaN
	// and the overflow guard would pass every later fraction.
	if _, err := d.Partition("nan", math.NaN()); err == nil {
		t.Fatal("NaN fraction accepted")
	}
	if _, err := d.Partition("b", 0.6); err == nil {
		t.Fatal("overflowing fraction accepted")
	}
	if _, err := d.Partition("a", 0.25); err == nil {
		t.Fatal("duplicate partition id accepted")
	}
	if _, err := d.Partition("c", 0); err == nil {
		t.Fatal("zero fraction accepted")
	}
	if _, err := d.Partition("c", 1.5); err == nil {
		t.Fatal("fraction > 1 accepted")
	}
	b, err := d.Partition("b", 0.5)
	if err != nil {
		t.Fatalf("exact fill after a rejected NaN: %v", err)
	}
	// Releasing an idle partition frees its fraction immediately.
	a.Release()
	if !a.Released() {
		t.Fatal("idle partition not merged back on Release")
	}
	if _, err := d.Partition("c", 0.5); err != nil {
		t.Fatalf("freed fraction not reusable: %v", err)
	}
	_ = b
}

func TestPartitionSingleStreamMatchesExclusive(t *testing.T) {
	// One partition with no co-residents runs FIFO at full rate: identical
	// timing to the exclusive device path.
	c, d := newDev(Exclusive)
	p, err := d.Partition("p", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	var done []time.Duration
	p.Submit(10*time.Millisecond, func() { done = append(done, c.Now()) })
	p.Submit(5*time.Millisecond, func() { done = append(done, c.Now()) })
	c.Run()
	if len(done) != 2 || done[0] != 10*time.Millisecond || done[1] != 15*time.Millisecond {
		t.Fatalf("completions = %v, want [10ms 15ms]", done)
	}
}

func TestPartitionCoResidencyInterference(t *testing.T) {
	// Two co-resident partitions each run at 1/(1+0.05): 10ms of work
	// finishes at 10.5ms — dedicated SMs, only the contention tax.
	c, d := newDev(Exclusive)
	a, _ := d.Partition("a", 0.5)
	b, _ := d.Partition("b", 0.5)
	var doneA, doneB time.Duration
	a.Submit(10*time.Millisecond, func() { doneA = c.Now() })
	b.Submit(10*time.Millisecond, func() { doneB = c.Now() })
	c.Run()
	want := time.Duration(float64(10*time.Millisecond) * (1 + profiler.SpatialInterference))
	if !approx(doneA, want, 50*time.Microsecond) || !approx(doneB, want, 50*time.Microsecond) {
		t.Fatalf("completions a=%v b=%v, want ~%v", doneA, doneB, want)
	}
}

func TestPartitionInterferenceOnlyWhileCoRunning(t *testing.T) {
	// b's job arrives after a's finishes: no overlap, no tax on either.
	c, d := newDev(Exclusive)
	a, _ := d.Partition("a", 0.5)
	b, _ := d.Partition("b", 0.5)
	var doneA, doneB time.Duration
	a.Submit(10*time.Millisecond, func() { doneA = c.Now() })
	c.At(20*time.Millisecond, func() {
		b.Submit(10*time.Millisecond, func() { doneB = c.Now() })
	})
	c.Run()
	if doneA != 10*time.Millisecond {
		t.Fatalf("a done at %v, want 10ms", doneA)
	}
	if doneB != 30*time.Millisecond {
		t.Fatalf("b done at %v, want 30ms", doneB)
	}
}

func TestPartitionReleaseDrainsFirst(t *testing.T) {
	c, d := newDev(Exclusive)
	p, _ := d.Partition("p", 0.5)
	var fired bool
	p.Submit(10*time.Millisecond, func() { fired = true })
	p.Release()
	if p.Released() {
		t.Fatal("partition merged back with work in flight")
	}
	c.Run()
	if !fired {
		t.Fatal("in-flight completion lost on Release")
	}
	if !p.Released() {
		t.Fatal("drained partition not merged back")
	}
	if len(d.Partitions()) != 0 {
		t.Fatalf("device still holds %d partitions", len(d.Partitions()))
	}
}

func TestPartitionBusyTimeMidBatch(t *testing.T) {
	// Satellite: sampling utilization mid-execution must include the
	// in-flight job's elapsed time — for the device and for the slice.
	c, d := newDev(Exclusive)
	p, _ := d.Partition("p", 0.5)
	p.Submit(time.Second, nil)
	c.RunUntil(400 * time.Millisecond)
	if got := p.BusyTime(); got != 400*time.Millisecond {
		t.Fatalf("partition mid-batch BusyTime = %v, want 400ms", got)
	}
	if got := d.BusyTime(); got != 400*time.Millisecond {
		t.Fatalf("device mid-batch BusyTime = %v, want 400ms", got)
	}
	if got := p.Utilization(0); math.Abs(got-1.0) > 0.01 {
		t.Fatalf("partition mid-batch utilization = %v, want 1.0", got)
	}
}

func TestDeviceBusyTimeMidBatchExclusive(t *testing.T) {
	// Satellite regression: a long-running exclusive batch contributes its
	// elapsed time to BusyTime while still executing.
	c, d := newDev(Exclusive)
	c.At(100*time.Millisecond, func() { d.Submit(time.Second, nil) })
	c.RunUntil(600 * time.Millisecond)
	if got := d.BusyTime(); got != 500*time.Millisecond {
		t.Fatalf("mid-batch BusyTime = %v, want 500ms", got)
	}
}

func TestDeviceBusyTimeMidBatchShared(t *testing.T) {
	c, d := newDev(Shared)
	d.Submit(time.Second, nil)
	d.Submit(time.Second, nil)
	c.RunUntil(300 * time.Millisecond)
	if got := d.BusyTime(); got != 300*time.Millisecond {
		t.Fatalf("shared mid-batch BusyTime = %v, want 300ms", got)
	}
}

func TestPartitionDeviceBusyIsUnion(t *testing.T) {
	// Two overlapping slices: device busy time counts wall-clock union,
	// not the sum of per-slice busy.
	c, d := newDev(Exclusive)
	a, _ := d.Partition("a", 0.5)
	b, _ := d.Partition("b", 0.5)
	a.Submit(10*time.Millisecond, nil)
	b.Submit(10*time.Millisecond, nil)
	c.Run()
	want := time.Duration(float64(10*time.Millisecond) * (1 + profiler.SpatialInterference))
	if !approx(d.BusyTime(), want, 50*time.Microsecond) {
		t.Fatalf("device BusyTime = %v, want ~%v (union)", d.BusyTime(), want)
	}
	if !approx(a.BusyTime(), want, 50*time.Microsecond) {
		t.Fatalf("slice BusyTime = %v, want ~%v", a.BusyTime(), want)
	}
}

func TestPartitionStragglerSlowdownApplies(t *testing.T) {
	c, d := newDev(Exclusive)
	p, _ := d.Partition("p", 0.5)
	d.SetSlowdown(2)
	var done time.Duration
	p.Submit(10*time.Millisecond, func() { done = c.Now() })
	c.Run()
	if done != 20*time.Millisecond {
		t.Fatalf("straggler slice done at %v, want 20ms", done)
	}
}

func TestPartitionSubmitAfterReleasePanics(t *testing.T) {
	_, d := newDev(Exclusive)
	p, _ := d.Partition("p", 0.5)
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("submit on released partition did not panic")
		}
	}()
	p.Submit(time.Millisecond, nil)
}

func TestPartitionTiesCompleteInSubmissionOrder(t *testing.T) {
	c, d := newDev(Exclusive)
	var order []string
	for _, id := range []string{"a", "b", "c", "d"} {
		id := id
		p, err := d.Partition(id, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		p.Submit(5*time.Millisecond, func() { order = append(order, id) })
	}
	c.Run()
	for i, id := range []string{"a", "b", "c", "d"} {
		if order[i] != id {
			t.Fatalf("completion order %v", order)
		}
	}
}

func TestPartitionQueueLenCountsSliceWork(t *testing.T) {
	_, d := newDev(Exclusive)
	p, _ := d.Partition("p", 0.5)
	p.Submit(10*time.Millisecond, nil)
	p.Submit(10*time.Millisecond, nil)
	if got := d.QueueLen(); got != 2 {
		t.Fatalf("device QueueLen = %d, want 2", got)
	}
	if got := p.QueueLen(); got != 2 {
		t.Fatalf("partition QueueLen = %d, want 2", got)
	}
}
