package gpusim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nexus/internal/profiler"
	"nexus/internal/simclock"
)

func newDev(mode Mode) (*simclock.Clock, *Device) {
	c := simclock.New()
	return c, New(c, "gpu0", profiler.GTX1080Ti, mode)
}

func TestExclusiveFIFO(t *testing.T) {
	c, d := newDev(Exclusive)
	var finished []time.Duration
	d.Submit(10*time.Millisecond, func() { finished = append(finished, c.Now()) })
	d.Submit(5*time.Millisecond, func() { finished = append(finished, c.Now()) })
	c.Run()
	if len(finished) != 2 {
		t.Fatalf("finished %d jobs", len(finished))
	}
	if finished[0] != 10*time.Millisecond || finished[1] != 15*time.Millisecond {
		t.Fatalf("completions at %v, want [10ms 15ms]", finished)
	}
}

func TestExclusiveQueueLen(t *testing.T) {
	c, d := newDev(Exclusive)
	d.Submit(10*time.Millisecond, nil)
	d.Submit(10*time.Millisecond, nil)
	if d.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", d.QueueLen())
	}
	c.Run()
	if d.QueueLen() != 0 {
		t.Fatalf("QueueLen after run = %d", d.QueueLen())
	}
}

func TestSubmitNonPositivePanics(t *testing.T) {
	_, d := newDev(Exclusive)
	defer func() {
		if recover() == nil {
			t.Fatal("zero work accepted")
		}
	}()
	d.Submit(0, nil)
}

func TestSharedSingleJobMatchesExclusive(t *testing.T) {
	c, d := newDev(Shared)
	var done time.Duration
	d.Submit(20*time.Millisecond, func() { done = c.Now() })
	c.Run()
	if done != 20*time.Millisecond {
		t.Fatalf("single shared job finished at %v, want 20ms", done)
	}
}

func TestSharedInterference(t *testing.T) {
	c, d := newDev(Shared)
	var t1, t2 time.Duration
	d.Submit(10*time.Millisecond, func() { t1 = c.Now() })
	d.Submit(10*time.Millisecond, func() { t2 = c.Now() })
	c.Run()
	// Two equal jobs under PS with 15% overhead: each runs at rate
	// 1/(2*1.15), so both finish at 10ms * 2.3 = 23ms.
	want := 23 * time.Millisecond
	if !approx(t1, want, time.Millisecond) || !approx(t2, want, time.Millisecond) {
		t.Fatalf("completions %v, %v; want ~%v", t1, t2, want)
	}
}

func TestSharedStaggeredArrivals(t *testing.T) {
	c, d := newDev(Shared)
	var t1, t2 time.Duration
	d.Submit(10*time.Millisecond, func() { t1 = c.Now() })
	c.At(5*time.Millisecond, func() {
		d.Submit(10*time.Millisecond, func() { t2 = c.Now() })
	})
	c.Run()
	// Job 1 runs alone 0-5ms (5ms progress), then shares. Remaining 5ms at
	// rate 1/2.3 takes 11.5ms -> t1 = 16.5ms. During that window job 2 also
	// progresses 11.5/2.3 = 5ms, leaving 5ms to run alone -> t2 = 21.5ms.
	if !approx(t1, 16500*time.Microsecond, 100*time.Microsecond) {
		t.Fatalf("t1 = %v, want ~16.5ms", t1)
	}
	if !approx(t2, 21500*time.Microsecond, 200*time.Microsecond) {
		t.Fatalf("t2 = %v, want ~21.5ms", t2)
	}
}

func approx(got, want, tol time.Duration) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	return diff <= tol
}

func TestLoadUnload(t *testing.T) {
	c, d := newDev(Exclusive)
	ready := false
	if err := d.Load("m1", 1<<30, func() { ready = true }); err != nil {
		t.Fatal(err)
	}
	if !d.IsLoaded("m1") {
		t.Fatal("model not marked loaded")
	}
	if d.MemUsed() != 1<<30 {
		t.Fatalf("MemUsed = %d", d.MemUsed())
	}
	c.Run()
	if !ready {
		t.Fatal("onReady never fired")
	}
	// A 1 GiB model at 2 GiB/s + 100ms fixed = 600ms.
	if got := LoadTime(1 << 30); got != 600*time.Millisecond {
		t.Fatalf("LoadTime = %v, want 600ms", got)
	}
	d.Unload("m1")
	if d.MemUsed() != 0 || d.IsLoaded("m1") {
		t.Fatal("unload did not free memory")
	}
	d.Unload("m1") // double unload is a no-op
}

func TestLoadAlreadyResident(t *testing.T) {
	c, d := newDev(Exclusive)
	if err := d.Load("m1", 1<<20, nil); err != nil {
		t.Fatal(err)
	}
	fired := false
	if err := d.Load("m1", 1<<20, func() { fired = true }); err != nil {
		t.Fatal(err)
	}
	c.Run()
	if !fired {
		t.Fatal("re-load onReady not fired")
	}
	if d.MemUsed() != 1<<20 {
		t.Fatal("re-load double-charged memory")
	}
}

func TestLoadOverCapacity(t *testing.T) {
	_, d := newDev(Exclusive)
	if err := d.Load("big", d.Spec.MemBytes+1, nil); err == nil {
		t.Fatal("over-capacity load accepted")
	}
	if d.MemUsed() != 0 {
		t.Fatal("failed load leaked memory")
	}
}

func TestUtilizationExclusive(t *testing.T) {
	c, d := newDev(Exclusive)
	d.Submit(30*time.Millisecond, nil)
	c.At(50*time.Millisecond, func() { d.Submit(20*time.Millisecond, nil) })
	c.RunUntil(100 * time.Millisecond)
	// Busy 0-30ms and 50-70ms => 50ms of 100ms.
	if got := d.Utilization(0); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
}

func TestUtilizationMidBusy(t *testing.T) {
	c, d := newDev(Exclusive)
	d.Submit(time.Second, nil)
	c.RunUntil(500 * time.Millisecond)
	if got := d.Utilization(0); math.Abs(got-1.0) > 0.01 {
		t.Fatalf("mid-job utilization = %v, want 1.0", got)
	}
}

func TestSharedManyJobsThroughputConservation(t *testing.T) {
	// Total service rate under PS is 1/(1+o(n-1)) <= 1: finishing k jobs of
	// work w each takes at least k*w.
	c, d := newDev(Shared)
	const n = 5
	var last time.Duration
	for i := 0; i < n; i++ {
		d.Submit(10*time.Millisecond, func() { last = c.Now() })
	}
	c.Run()
	overhead := 1 + InterferenceOverhead*float64(n-1)
	want := time.Duration(float64(n*10*time.Millisecond) * overhead)
	if !approx(last, want, time.Millisecond) {
		t.Fatalf("all-done at %v, want ~%v", last, want)
	}
}

// Property: in exclusive mode, completion time of the k-th submitted job
// equals the prefix sum of works (all submitted at t=0).
func TestPropertyExclusivePrefixSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, d := newDev(Exclusive)
		n := rng.Intn(20) + 1
		works := make([]time.Duration, n)
		finish := make([]time.Duration, n)
		for i := range works {
			works[i] = time.Duration(rng.Intn(50)+1) * time.Millisecond
			i := i
			d.Submit(works[i], func() { finish[i] = c.Now() })
		}
		c.Run()
		var sum time.Duration
		for i := range works {
			sum += works[i]
			if finish[i] != sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: shared mode is work-conserving and never finishes a job before
// its exclusive duration.
func TestPropertySharedLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, d := newDev(Shared)
		n := rng.Intn(8) + 1
		ok := true
		for i := 0; i < n; i++ {
			w := time.Duration(rng.Intn(30)+1) * time.Millisecond
			at := time.Duration(rng.Intn(20)) * time.Millisecond
			c.At(at, func() {
				d.Submit(w, func() {
					if c.Now()-at < w {
						ok = false
					}
				})
			})
		}
		c.Run()
		return ok && d.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNewUnknownGPUPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown GPU type accepted")
		}
	}()
	New(simclock.New(), "x", "not-a-gpu", Exclusive)
}

func TestJobStructsAreReused(t *testing.T) {
	c := simclock.New()
	d := New(c, "g", profiler.GTX1080Ti, Exclusive)
	// Steady-state submit/complete churn: each completion resubmits. Jobs
	// are values in the lane's ring, so after warmup churn allocates nothing.
	n := 0
	var resubmit func()
	resubmit = func() {
		n++
		if n < 500 {
			d.Submit(time.Millisecond, resubmit)
		}
	}
	d.Submit(time.Millisecond, resubmit)
	allocs := testing.AllocsPerRun(1, func() { c.Run() })
	if n != 500 {
		t.Fatalf("completed %d jobs, want 500", n)
	}
	if allocs > 50 {
		t.Fatalf("steady-state churn allocated %.0f objects; job storage is not being reused", allocs)
	}
}
