package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"nexus/internal/runner"
	"nexus/internal/session"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	if h.FractionAbove(time.Millisecond) != 0 {
		t.Fatal("empty histogram FractionAbove should be 0")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Record(10 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 10*time.Millisecond || h.Max() != 10*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	q := h.Quantile(0.5)
	if relErr(q, 10*time.Millisecond) > 0.03 {
		t.Fatalf("median = %v, want ~10ms", q)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5 * time.Millisecond)
	if h.Min() != 0 {
		t.Fatalf("negative values should clamp to 0, got min %v", h.Min())
	}
}

func relErr(a, b time.Duration) float64 {
	return math.Abs(float64(a)-float64(b)) / float64(b)
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000 ms uniformly.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 500 * time.Millisecond},
		{0.9, 900 * time.Millisecond},
		{0.99, 990 * time.Millisecond},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if relErr(got, c.want) > 0.05 {
			t.Errorf("q%.2f = %v, want ~%v", c.q, got, c.want)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Error("extreme quantiles should return min/max")
	}
}

func TestHistogramFractionAbove(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(10 * time.Millisecond)
	}
	for i := 0; i < 25; i++ {
		h.Record(500 * time.Millisecond)
	}
	got := h.FractionAbove(100 * time.Millisecond)
	if math.Abs(got-0.2) > 0.01 {
		t.Fatalf("FractionAbove(100ms) = %v, want 0.2", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 50; i++ {
		a.Record(time.Millisecond)
		b.Record(time.Second)
	}
	a.Merge(&b)
	if a.Count() != 100 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != time.Millisecond || relErr(a.Max(), time.Second) > 0.001 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	var empty Histogram
	a.Merge(&empty) // must be a no-op
	if a.Count() != 100 {
		t.Fatal("merging empty histogram changed count")
	}
}

// Property: histogram quantiles approximate exact quantiles within 5%
// relative error for random positive data.
func TestPropertyQuantileAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		n := 500
		vals := make([]time.Duration, n)
		for i := range vals {
			vals[i] = time.Duration(rng.Intn(1000000)+100) * time.Microsecond
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
			exact := vals[int(q*float64(n))]
			got := h.Quantile(q)
			if relErr(got, exact) > 0.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionStats(t *testing.T) {
	s := &SessionStats{Sent: 100, Dropped: 2, Completed: 95, Missed: 1}
	if s.Good() != 94 {
		t.Fatalf("Good = %d", s.Good())
	}
	if math.Abs(s.BadRate()-0.03) > 1e-9 {
		t.Fatalf("BadRate = %v", s.BadRate())
	}
	var zero SessionStats
	if zero.BadRate() != 0 {
		t.Fatal("zero stats BadRate should be 0")
	}
}

func TestRecorder(t *testing.T) {
	names := session.NewTable()
	r := NewRecorder(names)
	r.Session("b").Sent = 5
	r.Session("a").Sent = 3
	r.Session("a").Dropped = 1
	ids := r.SessionIDs()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("ids = %v", ids)
	}
	tot := r.Total()
	if tot.Sent != 8 || tot.Dropped != 1 {
		t.Fatalf("total = %+v", tot)
	}
	// Session must return the same pointer on repeat calls.
	if r.Session("a") != r.Session("a") {
		t.Fatal("Session not stable")
	}
	// The handle path reaches the same stats, and an untouched session has
	// none until it is.
	if h, _ := names.Lookup("a"); r.Stats(h) != r.Session("a") {
		t.Fatal("Stats(handle) differs from Session(id)")
	}
	names.Intern("c")
	if ids := r.SessionIDs(); len(ids) != 2 {
		t.Fatalf("ids with an untouched session = %v", ids)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Add(100*time.Millisecond, 1)
	ts.Add(900*time.Millisecond, 1)
	ts.Add(1500*time.Millisecond, 4)
	if ts.Len() != 2 {
		t.Fatalf("Len = %d", ts.Len())
	}
	if ts.Sum(0) != 2 || ts.Sum(1) != 4 {
		t.Fatalf("sums = %v, %v", ts.Sum(0), ts.Sum(1))
	}
	if ts.Rate(0) != 2 {
		t.Fatalf("rate(0) = %v", ts.Rate(0))
	}
	if ts.Mean(1) != 4 {
		t.Fatalf("mean(1) = %v", ts.Mean(1))
	}
	if ts.Sum(10) != 0 || ts.Mean(-1) != 0 {
		t.Fatal("out-of-range buckets should read 0")
	}
}

func TestTimeSeriesInvalidInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval did not panic")
		}
	}()
	NewTimeSeries(0)
}

func TestMaxGoodputBasic(t *testing.T) {
	// A system with true capacity 500 r/s: bad rate 0 below, 0.5 above.
	eval := func(rate float64) float64 {
		if rate <= 500 {
			return 0
		}
		return 0.5
	}
	got := MaxGoodput(1, 10000, GoodputTarget, 0.01, eval)
	if math.Abs(got-500) > 10 {
		t.Fatalf("MaxGoodput = %v, want ~500", got)
	}
}

func TestMaxGoodputAllBad(t *testing.T) {
	got := MaxGoodput(1, 1000, GoodputTarget, 0.01, func(float64) float64 { return 1 })
	if got != 0 {
		t.Fatalf("MaxGoodput = %v, want 0", got)
	}
}

func TestMaxGoodputAllGood(t *testing.T) {
	got := MaxGoodput(1, 1000, GoodputTarget, 0.01, func(float64) float64 { return 0 })
	if got != 1000 {
		t.Fatalf("MaxGoodput = %v, want hi bound 1000", got)
	}
}

// Property: MaxGoodput lands within tolerance of a random true capacity.
func TestPropertyMaxGoodput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 50 + rng.Float64()*5000
		eval := func(rate float64) float64 {
			if rate <= capacity {
				return 0.002
			}
			return 0.2
		}
		got := MaxGoodput(1, 10000, GoodputTarget, 0.01, eval)
		return got <= capacity && got >= capacity*0.97
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxGoodputNonMonotoneEval(t *testing.T) {
	// Real systems occasionally pass at a higher rate than one they failed
	// (placement effects). The search must still terminate and return a
	// rate that actually passed.
	calls := map[float64]float64{}
	eval := func(rate float64) float64 {
		// Fail in a narrow band, pass elsewhere below 800.
		bad := 0.0
		if rate > 400 && rate < 500 {
			bad = 0.2
		}
		if rate >= 800 {
			bad = 0.5
		}
		calls[rate] = bad
		return bad
	}
	got := MaxGoodput(10, 2000, GoodputTarget, 0.02, eval)
	if got <= 0 || got >= 800 {
		t.Fatalf("MaxGoodput = %v", got)
	}
	if calls[got] > 1-GoodputTarget {
		t.Fatalf("returned a failing rate %v (bad %v)", got, calls[got])
	}
}

func TestHistogramQuantileBracketedByMinMax(t *testing.T) {
	var h Histogram
	h.Record(3 * time.Millisecond)
	h.Record(7 * time.Millisecond)
	for _, q := range []float64{0.1, 0.5, 0.9} {
		v := h.Quantile(q)
		if v < h.Min() || v > h.Max() {
			t.Fatalf("q%.1f = %v outside [min,max]", q, v)
		}
	}
}

func TestTimeSeriesSparseBuckets(t *testing.T) {
	ts := NewTimeSeries(time.Second)
	ts.Add(10*time.Second, 5)
	if ts.Len() != 11 {
		t.Fatalf("Len = %d, want 11 (buckets 0..10 allocated)", ts.Len())
	}
	if ts.Sum(5) != 0 || ts.Sum(10) != 5 {
		t.Fatal("sparse bucket accounting wrong")
	}
}

func TestMaxGoodputKMatchesCapacity(t *testing.T) {
	eval := func(rate float64) float64 {
		if rate <= 500 {
			return 0
		}
		return 0.5
	}
	for _, k := range []int{2, 3, 4, 8} {
		got := MaxGoodputK(1, 10000, GoodputTarget, 0.01, k, eval)
		if math.Abs(got-500) > 10 {
			t.Fatalf("k=%d: MaxGoodputK = %v, want ~500", k, got)
		}
	}
}

func TestMaxGoodputKEdges(t *testing.T) {
	if got := MaxGoodputK(1, 1000, GoodputTarget, 0.01, 4, func(float64) float64 { return 1 }); got != 0 {
		t.Fatalf("all-bad: got %v, want 0", got)
	}
	if got := MaxGoodputK(1, 1000, GoodputTarget, 0.01, 4, func(float64) float64 { return 0 }); got != 1000 {
		t.Fatalf("all-good: got %v, want hi bound 1000", got)
	}
	// k<=1 falls back to the sequential bisection.
	seq := MaxGoodput(1, 1000, GoodputTarget, 0.01, func(r float64) float64 {
		if r <= 300 {
			return 0
		}
		return 1
	})
	k1 := MaxGoodputK(1, 1000, GoodputTarget, 0.01, 1, func(r float64) float64 {
		if r <= 300 {
			return 0
		}
		return 1
	})
	if seq != k1 {
		t.Fatalf("k=1 fallback diverged: %v vs %v", k1, seq)
	}
}

// The k-probe search must be deterministic regardless of worker count:
// probe placement depends only on the bracket, and the monotone collapse
// depends only on probe results, not completion order.
func TestMaxGoodputKDeterministicAcrossWorkers(t *testing.T) {
	eval := func(rate float64) float64 {
		if rate <= 777 {
			return 0.004
		}
		return 0.3
	}
	prev := runner.SetDefaultWorkers(1)
	defer runner.SetDefaultWorkers(prev)
	seq := MaxGoodputK(1, 10000, GoodputTarget, 0.01, 4, eval)
	runner.SetDefaultWorkers(8)
	par := MaxGoodputK(1, 10000, GoodputTarget, 0.01, 4, eval)
	if seq != par {
		t.Fatalf("worker count changed the result: %v vs %v", seq, par)
	}
}

// Property: MaxGoodputK lands within tolerance of a random true capacity.
func TestPropertyMaxGoodputK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 50 + rng.Float64()*5000
		k := 2 + int(seed%5+4)%5
		eval := func(rate float64) float64 {
			if rate <= capacity {
				return 0.002
			}
			return 0.2
		}
		got := MaxGoodputK(1, 10000, GoodputTarget, 0.01, k, eval)
		return got <= capacity && got >= capacity*0.97
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// denseHistogram is the reference Histogram: one counter per bucket index
// from 0 up to the highest index seen. The windowed Histogram must answer
// every accessor exactly as it does.
type denseHistogram struct {
	buckets  []uint64
	count    uint64
	sum      time.Duration
	min, max time.Duration
}

func (h *denseHistogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := bucketIndex(d)
	if idx >= len(h.buckets) {
		nb := make([]uint64, idx+16)
		copy(nb, h.buckets)
		h.buckets = nb
	}
	h.buckets[idx]++
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
}

func (h *denseHistogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

func (h *denseHistogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.count))
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			v := bucketValue(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

func (h *denseHistogram) FractionAbove(limit time.Duration) float64 {
	if h.count == 0 {
		return 0
	}
	var above uint64
	for i := bucketIndex(limit) + 1; i < len(h.buckets); i++ {
		above += h.buckets[i]
	}
	return float64(above) / float64(h.count)
}

func (h *denseHistogram) Reset() {
	clear(h.buckets)
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
}

func (h *denseHistogram) Merge(other *denseHistogram) {
	if other.count == 0 {
		return
	}
	if len(other.buckets) > len(h.buckets) {
		nb := make([]uint64, len(other.buckets))
		copy(nb, h.buckets)
		h.buckets = nb
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// histPair drives a windowed histogram and its dense reference in step.
type histPair struct {
	w Histogram
	d denseHistogram
}

func (p *histPair) record(d time.Duration) { p.w.Record(d); p.d.Record(d) }
func (p *histPair) merge(o *histPair)      { p.w.Merge(&o.w); p.d.Merge(&o.d) }
func (p *histPair) reset()                 { p.w.Reset(); p.d.Reset() }

// check asserts every accessor of p's windowed histogram equals the
// reference's, and that the window holds every recorded count.
func (p *histPair) check(t *testing.T, label string) {
	t.Helper()
	w, d := &p.w, &p.d
	if w.Count() != d.count || w.Mean() != d.Mean() || w.Min() != d.min || w.Max() != d.max {
		t.Fatalf("%s: count/mean/min/max = %d/%v/%v/%v, want %d/%v/%v/%v", label,
			w.Count(), w.Mean(), w.Min(), w.Max(), d.count, d.Mean(), d.min, d.max)
	}
	for _, q := range []float64{-1, 0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1, 2} {
		if got, want := w.Quantile(q), d.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %v, want %v", label, q, got, want)
		}
	}
	limits := []time.Duration{-time.Second, 0, 500 * time.Nanosecond, time.Microsecond,
		d.min / 2, d.min, d.Quantile(0.5), d.max, d.max * 2, time.Hour}
	for _, limit := range limits {
		if got, want := w.FractionAbove(limit), d.FractionAbove(limit); got != want {
			t.Fatalf("%s: FractionAbove(%v) = %v, want %v", label, limit, got, want)
		}
	}
	var inWindow uint64
	for _, c := range w.buckets {
		inWindow += c
	}
	if inWindow != w.count {
		t.Fatalf("%s: window holds %d counts, want %d", label, inWindow, w.count)
	}
}

// TestHistogramMatchesDense pins the windowed representation to the dense
// reference on adversarial sequences: a window that moves down then up,
// merges of disjoint windows in both orders and into an empty histogram,
// reuse after Reset, and values below zero and below 1µs.
func TestHistogramMatchesDense(t *testing.T) {
	var p histPair
	p.check(t, "empty")
	for _, d := range []time.Duration{10 * time.Millisecond, 2 * time.Millisecond,
		50 * time.Microsecond, 3 * time.Microsecond, 999 * time.Nanosecond,
		0, -time.Millisecond, 5 * time.Second, 40 * time.Second, 11 * time.Millisecond} {
		p.record(d)
		p.check(t, fmt.Sprintf("after recording %v", d))
	}

	low, high := &histPair{}, &histPair{}
	for i := 1; i <= 20; i++ {
		low.record(time.Duration(i) * time.Microsecond)
		high.record(time.Duration(i) * time.Second)
	}
	lowHigh, highLow, empty := &histPair{}, &histPair{}, &histPair{}
	lowHigh.merge(low)
	lowHigh.merge(high)
	highLow.merge(high)
	highLow.merge(low)
	lowHigh.check(t, "low<-high")
	highLow.check(t, "high<-low")
	empty.merge(&histPair{})
	empty.check(t, "empty<-empty")
	low.merge(empty)
	low.check(t, "low<-empty")
	empty.merge(high)
	empty.check(t, "empty<-high")
	high.merge(high)
	high.check(t, "high<-high")

	// Reset keeps the window; reuse below, inside and above it.
	p.reset()
	p.check(t, "after reset")
	for _, d := range []time.Duration{time.Millisecond, 100 * time.Nanosecond, time.Minute} {
		p.record(d)
		p.check(t, fmt.Sprintf("reuse %v", d))
	}
	p.merge(lowHigh)
	p.check(t, "reused<-low<-high")
}

// TestHistogramMatchesDenseRandom drives random mixes of Record, Merge and
// Reset across a few histograms, comparing against the dense reference
// after every step.
func TestHistogramMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	value := func() time.Duration {
		switch rng.Intn(10) {
		case 0:
			return -time.Duration(rng.Int63n(int64(time.Second)))
		case 1:
			return time.Duration(rng.Int63n(int64(time.Microsecond)))
		default: // log-uniform from 1µs to ~30s
			return time.Duration(float64(time.Microsecond) * math.Exp(rng.Float64()*17))
		}
	}
	hs := make([]*histPair, 4)
	for i := range hs {
		hs[i] = &histPair{}
	}
	for step := 0; step < 4000; step++ {
		i := rng.Intn(len(hs))
		switch op := rng.Intn(100); {
		case op < 3:
			hs[i].reset()
		case op < 8:
			hs[i].merge(hs[rng.Intn(len(hs))])
		default:
			// Runs of nearby values, like one session's latencies.
			center := value()
			for n := rng.Intn(8); n >= 0; n-- {
				hs[i].record(center + time.Duration(rng.NormFloat64()*0.05*float64(center)))
			}
		}
		hs[i].check(t, fmt.Sprintf("step %d", step))
	}
}

// TestHistogramRecordNoAlloc pins that recording inside the covered
// window never allocates.
func TestHistogramRecordNoAlloc(t *testing.T) {
	var h Histogram
	h.Record(time.Millisecond)
	h.Record(2 * time.Millisecond)
	vals := []time.Duration{time.Millisecond, 1500 * time.Microsecond, 2 * time.Millisecond}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(vals[i%len(vals)])
		i++
	}); n != 0 {
		t.Fatalf("Record inside the window allocates %v times per call", n)
	}
}

// TestHistogramWindowSize pins the point of the windowed representation:
// a histogram of values spanning a few buckets stores a few dozen counters,
// however large the values are.
func TestHistogramWindowSize(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(time.Duration(100+i%10) * time.Millisecond)
	}
	if n := len(h.buckets); n > 2*histSlack+8 {
		t.Fatalf("window of %d buckets for values spanning ~6; dense would hold %d", n, bucketIndex(h.Max())+1)
	}
}
