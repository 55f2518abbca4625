package metrics

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
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
	got := MaxGoodputK(1, 10000, GoodputTarget, 0.01, 1, eval)
	if math.Abs(got-500) > 10 {
		t.Fatalf("MaxGoodputK(k=1) = %v, want ~500", got)
	}
}

func TestMaxGoodputAllBad(t *testing.T) {
	got := MaxGoodputK(1, 1000, GoodputTarget, 0.01, 1, func(float64) float64 { return 1 })
	if got != 0 {
		t.Fatalf("MaxGoodputK(k=1) = %v, want 0", got)
	}
}

func TestMaxGoodputAllGood(t *testing.T) {
	got := MaxGoodputK(1, 1000, GoodputTarget, 0.01, 1, func(float64) float64 { return 0 })
	if got != 1000 {
		t.Fatalf("MaxGoodputK(k=1) = %v, want hi bound 1000", got)
	}
}

// Property: bisection lands within tolerance of a random true capacity.
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
		got := MaxGoodputK(1, 10000, GoodputTarget, 0.01, 1, eval)
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
	var mu sync.Mutex // the endpoints are evaluated concurrently
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
		mu.Lock()
		calls[rate] = bad
		mu.Unlock()
		return bad
	}
	got := MaxGoodputK(10, 2000, GoodputTarget, 0.02, 1, eval)
	if got <= 0 || got >= 800 {
		t.Fatalf("MaxGoodputK(k=1) = %v", got)
	}
	if calls[got] > 1-GoodputTarget {
		t.Fatalf("returned a failing rate %v (bad %v)", got, calls[got])
	}
}

// TestMaxGoodputKOneIsBisection: at k = 1 the search probes lo, then hi,
// then the midpoint (good+bad)/2 of the bracket each round, and returns
// the last passing rate.
func TestMaxGoodputKOneIsBisection(t *testing.T) {
	prev := runner.SetDefaultWorkers(1) // endpoints in call order
	defer runner.SetDefaultWorkers(prev)
	var calls []float64
	got := MaxGoodputK(1, 1000, GoodputTarget, 0.01, 1, func(r float64) float64 {
		calls = append(calls, r)
		if r <= 300 {
			return 0
		}
		return 1
	})
	want := []float64{1, 1000}
	good, bad := 1.0, 1000.0
	for bad-good > 0.01*bad {
		mid := (good + bad) / 2
		want = append(want, mid)
		if mid <= 300 {
			good = mid
		} else {
			bad = mid
		}
	}
	if !slices.Equal(calls, want) {
		t.Fatalf("k=1 probed %v, want %v", calls, want)
	}
	if got != good {
		t.Fatalf("k=1 returned %v, want %v", got, good)
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
// from 0 up to the highest index seen. The Histogram must answer every
// accessor exactly as it does, in either form.
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

// histPair drives a Histogram and its dense reference in step. dense is
// the form the Histogram must be in: it goes dense on a merge of a
// non-empty histogram or when its values since the last Reset hit more
// than sparseMax distinct buckets, and stays dense.
type histPair struct {
	w     Histogram
	d     denseHistogram
	dense bool
}

func (p *histPair) record(d time.Duration) {
	p.w.Record(d)
	p.d.Record(d)
	distinct := 0
	for _, c := range p.d.buckets {
		if c > 0 {
			distinct++
		}
	}
	p.dense = p.dense || distinct > sparseMax
}

func (p *histPair) merge(o *histPair) {
	p.dense = p.dense || o.d.count > 0
	p.w.Merge(&o.w)
	p.d.Merge(&o.d)
}

func (p *histPair) reset() { p.w.Reset(); p.d.Reset() }

// check asserts every accessor of p's histogram equals the reference's,
// that the histogram is in the form p expects, and that the active form
// holds every recorded count: sorted, non-zero sparse entries, at most
// sparseMax of them, or a dense window.
func (p *histPair) check(t *testing.T, label string) {
	t.Helper()
	w, d := &p.w, &p.d
	if w.Count() != d.count || w.Mean() != d.Mean() || w.Min() != d.min || w.Max() != d.max {
		t.Fatalf("%s: count/mean/min/max = %d/%v/%v/%v, want %d/%v/%v/%v", label,
			w.Count(), w.Mean(), w.Min(), w.Max(), d.count, d.Mean(), d.min, d.max)
	}
	// The eighths make small counts land ranks exactly on a bucket's
	// cumulative count, so a walk that stops one bucket early shows.
	for _, q := range []float64{-1, 0, 0.001, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 0.9, 0.99, 0.999, 1, 2} {
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
	if dense := w.buckets != nil; dense != p.dense {
		t.Fatalf("%s: dense form = %v, want %v (%d sparse entries)", label, dense, p.dense, len(w.entries))
	}
	if len(w.entries) > sparseMax || (p.dense && len(w.entries) > 0) {
		t.Fatalf("%s: %d sparse entries with dense=%v", label, len(w.entries), p.dense)
	}
	var stored uint64
	for i, e := range w.entries {
		if e&sparseCountMask == 0 || (i > 0 && e>>sparseShift <= w.entries[i-1]>>sparseShift) {
			t.Fatalf("%s: sparse entries %x are not sorted non-zero counts", label, w.entries)
		}
		stored += e & sparseCountMask
	}
	for _, c := range w.buckets {
		stored += c
	}
	if stored != w.count {
		t.Fatalf("%s: the histogram stores %d counts, want %d", label, stored, w.count)
	}
}

// distinctRun records n values in n distinct buckets, from 100µs up in
// 100µs steps: up to n = 40, each is more than a 2% bucket above the last.
func (p *histPair) distinctRun(n int) {
	for i := 1; i <= n; i++ {
		p.record(time.Duration(i) * 100 * time.Microsecond)
	}
}

// TestHistogramMatchesDense pins the Histogram to the dense reference on
// adversarial sequences: a window that moves down then up, the switch from
// the sparse to the dense form, merges of disjoint windows in both orders,
// into an empty histogram and in all four sparse/dense pairings, reuse
// after Reset in each form, and values below zero and below 1µs.
func TestHistogramMatchesDense(t *testing.T) {
	var p histPair
	p.check(t, "empty")
	for _, d := range []time.Duration{10 * time.Millisecond, 2 * time.Millisecond,
		50 * time.Microsecond, 3 * time.Microsecond, 999 * time.Nanosecond,
		0, -time.Millisecond, 5 * time.Second, 40 * time.Second, 11 * time.Millisecond} {
		p.record(d)
		p.check(t, fmt.Sprintf("after recording %v", d))
	}

	// Cross the sparse form's limit one distinct bucket at a time; check
	// sees it switch on bucket sparseMax+1 and stay dense.
	var grow histPair
	for i := 1; i <= sparseMax+3; i++ {
		grow.distinctRun(i)
		grow.check(t, fmt.Sprintf("%d distinct buckets", i))
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

	// Merge in every pairing of forms, over overlapping and disjoint
	// ranges. The source keeps its form.
	sparse := func(scale time.Duration) *histPair {
		s := &histPair{}
		for i := 1; i <= 6; i++ {
			s.record(time.Duration(i) * scale)
		}
		return s
	}
	dense := func(scale time.Duration) *histPair {
		d := &histPair{}
		for i := 1; i <= sparseMax+8; i++ {
			d.record(time.Duration(i) * scale / 10)
		}
		return d
	}
	forms := map[bool]func(time.Duration) *histPair{false: sparse, true: dense}
	for _, dstDense := range []bool{false, true} {
		for _, srcDense := range []bool{false, true} {
			for _, scales := range [][2]time.Duration{{time.Millisecond, time.Millisecond},
				{time.Microsecond, time.Second}, {time.Second, time.Microsecond}} {
				dst, src := forms[dstDense](scales[0]), forms[srcDense](scales[1])
				label := fmt.Sprintf("dense=%v<-dense=%v at %v<-%v", dstDense, srcDense, scales[0], scales[1])
				dst.check(t, label+" before")
				dst.merge(src)
				dst.check(t, label)
				src.check(t, label+" source")
			}
		}
	}

	// Reset keeps the form and its storage; reuse below, inside and above
	// the old values.
	for _, form := range []*histPair{sparse(time.Millisecond), dense(time.Millisecond)} {
		entries, buckets := cap(form.w.entries), len(form.w.buckets)
		form.reset()
		form.check(t, "after reset")
		if cap(form.w.entries) != entries || len(form.w.buckets) != buckets {
			t.Fatalf("reset changed storage: %d entries, %d buckets; want %d, %d",
				cap(form.w.entries), len(form.w.buckets), entries, buckets)
		}
		for _, d := range []time.Duration{time.Millisecond, 100 * time.Nanosecond, time.Minute} {
			form.record(d)
			form.check(t, fmt.Sprintf("reuse %v", d))
		}
		form.merge(lowHigh)
		form.check(t, "reused<-low<-high")
	}
}

// TestHistogramMatchesDenseRandom drives random mixes of Record, Merge and
// Reset across a few histograms, replacing one with a fresh histogram now
// and then so that both forms keep being exercised, comparing against the
// dense reference after every step.
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
	// merges counts Merge calls by the forms of receiver and source.
	merges := map[[2]bool]int{}
	for step := 0; step < 4000; step++ {
		i := rng.Intn(len(hs))
		switch op := rng.Intn(100); {
		case op < 3:
			hs[i] = &histPair{}
		case op < 6:
			hs[i].reset()
		case op < 11:
			src := hs[rng.Intn(len(hs))]
			if src.d.count > 0 {
				merges[[2]bool{hs[i].dense, src.dense}]++
			}
			hs[i].merge(src)
		default:
			// Runs of nearby values, like one session's latencies.
			center := value()
			for n := rng.Intn(8); n >= 0; n-- {
				hs[i].record(center + time.Duration(rng.NormFloat64()*0.05*float64(center)))
			}
		}
		hs[i].check(t, fmt.Sprintf("step %d", step))
	}
	for _, dst := range []bool{false, true} {
		for _, src := range []bool{false, true} {
			if merges[[2]bool{dst, src}] == 0 {
				t.Errorf("no merge of a dense=%v histogram into a dense=%v one", src, dst)
			}
		}
	}
}

// checkHistogramScript decodes a byte script into Record, Merge and Reset
// operations on three histograms and checks each histogram the operation
// touched against the dense reference. Each operation takes four bytes
// op, a, b, c: the low two bits of op pick the histogram (3 wraps to 0),
// the next three the operation, and the top three a run length.
//   - 0: Reset.
//   - 1: Merge from histogram a%3 (itself included).
//   - otherwise: Record 1+op>>5 values, value k at fuzzValue(a<<8|b +
//     k*c), so a run spreads over up to 8 buckets.
func checkHistogramScript(t *testing.T, script []byte) {
	var hs [3]histPair
	for step := 0; len(script) >= 4; step++ {
		op, a, b, c := script[0], script[1], script[2], script[3]
		script = script[4:]
		p := &hs[int(op&3)%3]
		switch op >> 2 & 7 {
		case 0:
			p.reset()
		case 1:
			p.merge(&hs[a%3])
		default:
			x := int(a)<<8 | int(b)
			for k := 0; k <= int(op>>5); k++ {
				p.record(fuzzValue(x + k*int(c)))
			}
		}
		p.check(t, fmt.Sprintf("step %d", step))
	}
}

// fuzzValue maps x to a latency: below 256 a value from -128ns to 127ns,
// above it a log-uniform spread from ~1µs to ~10 minutes (66 steps of x
// per bucket), and math.MaxInt64 at the top.
func fuzzValue(x int) time.Duration {
	switch {
	case x < 256:
		return time.Duration(x - 128)
	case x >= 1<<16-1:
		return math.MaxInt64
	}
	return time.Duration(float64(time.Microsecond) * math.Pow(1.0003, float64(x)))
}

// FuzzHistogram is checkHistogramScript over fuzzed scripts, seeded by the
// committed corpus under testdata/fuzz.
func FuzzHistogram(f *testing.F) {
	f.Fuzz(checkHistogramScript)
}

// TestHistogramRecordNoAlloc pins that recording into an existing sparse
// entry, or inside the covered window of the dense form, never allocates.
func TestHistogramRecordNoAlloc(t *testing.T) {
	vals := []time.Duration{time.Millisecond, 1500 * time.Microsecond, 2 * time.Millisecond}
	for _, dense := range []bool{false, true} {
		var p histPair
		if dense {
			p.distinctRun(sparseMax + 1)
		}
		for _, v := range vals {
			p.record(v)
		}
		p.check(t, fmt.Sprintf("dense=%v", dense))
		h := &p.w
		i := 0
		if n := testing.AllocsPerRun(1000, func() {
			h.Record(vals[i%len(vals)])
			i++
		}); n != 0 {
			t.Fatalf("dense=%v: Record of a stored bucket allocates %v times per call", dense, n)
		}
	}
}

// TestHistogramFootprint pins the point of the sparse form: a session's
// latencies, 52 samples over 11 buckets spread across ~100 bucket
// indices, cost at most 16 packed entries and no dense window (which
// would hold ~100 counters).
func TestHistogramFootprint(t *testing.T) {
	var h Histogram
	for i := 0; i < 52; i++ {
		h.Record(time.Duration(float64(5*time.Millisecond) * math.Pow(histGrowth, float64(10*(i%11)))))
	}
	if h.buckets != nil || len(h.entries) != 11 || cap(h.entries) > 16 {
		t.Fatalf("52 samples in 11 buckets: dense window of %d, %d entries (cap %d); want no window and <= 16 entries",
			len(h.buckets), len(h.entries), cap(h.entries))
	}
}

// TestHistogramSparseCountLimit pins the other switch to the dense form:
// an entry whose count would reach sparseCountMask, which no test can
// reach by recording.
func TestHistogramSparseCountLimit(t *testing.T) {
	v := 5 * time.Millisecond
	idx := uint64(bucketIndex(v))
	h := Histogram{entries: []uint64{idx<<sparseShift | (sparseCountMask - 2)}, count: sparseCountMask - 2, min: v, max: v}
	h.Record(v)
	if h.buckets != nil || h.entries[0] != idx<<sparseShift|(sparseCountMask-1) {
		t.Fatalf("count %d below the limit: dense=%v, entries %x", sparseCountMask-1, h.buckets != nil, h.entries)
	}
	h.Record(v)
	if h.buckets == nil || h.entries != nil || h.Count() != sparseCountMask || h.buckets[int(idx)-h.off] != sparseCountMask {
		t.Fatalf("count %d: dense=%v, entries %x, count %d", uint64(sparseCountMask), h.buckets != nil, h.entries, h.Count())
	}
	if got := h.Quantile(0.5); got != v {
		t.Fatalf("Quantile(0.5) = %v, want %v", got, v)
	}
}

// BenchmarkHistogramRecord records a steady stream of latencies over ten
// buckets into a histogram in each form; both must stay at 0 allocs/op.
func BenchmarkHistogramRecord(b *testing.B) {
	vals := make([]time.Duration, 64)
	for i := range vals {
		vals[i] = time.Duration(float64(5*time.Millisecond) * math.Pow(histGrowth, float64(i%10)))
	}
	for _, form := range []string{"sparse", "dense"} {
		b.Run(form, func(b *testing.B) {
			var h Histogram
			if form == "dense" {
				for i := 1; i <= sparseMax+1; i++ {
					h.Record(time.Duration(i) * 100 * time.Microsecond)
				}
			}
			for _, v := range vals {
				h.Record(v)
			}
			if dense := h.buckets != nil; dense != (form == "dense") {
				b.Fatalf("%s histogram has dense=%v", form, dense)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Record(vals[i%len(vals)])
			}
		})
	}
}

// TestBucketIndexMatchesLog checks the table lookup against the logarithm
// formula it is derived from: at every bucket's lower bound, one below
// and one above it, at the edges of the int64 range, and at random
// durations spread over every magnitude up to math.MaxInt64.
func TestBucketIndexMatchesLog(t *testing.T) {
	check := func(d time.Duration) {
		t.Helper()
		if got, want := bucketIndex(d), logBucketIndex(d); got != want {
			t.Fatalf("bucketIndex(%d) = %d, logarithm formula %d", int64(d), got, want)
		}
	}
	if n := len(bucketLow) - 1; n != logBucketIndex(math.MaxInt64) {
		t.Fatalf("%d bucket bounds, want one per bucket up to %d", n, logBucketIndex(math.MaxInt64))
	}
	for i := 1; i < len(bucketLow); i++ {
		lo := bucketLow[i]
		if logBucketIndex(lo) != i || logBucketIndex(lo-1) != i-1 {
			t.Fatalf("bucket %d bound %d: formula gives %d there and %d below", i, int64(lo), logBucketIndex(lo), logBucketIndex(lo-1))
		}
		check(lo - 1)
		check(lo)
		check(lo + 1)
	}
	for _, d := range []time.Duration{math.MinInt64, -1, 0, 1, 999, 1000, 1001, 1 << 40, math.MaxInt64 - 1, math.MaxInt64} {
		check(d)
	}
	rng := rand.New(rand.NewSource(1))
	for range 200_000 {
		check(time.Duration(rng.Int63() >> rng.Intn(63)))
		check(time.Duration(rng.Int63()))
	}
}
