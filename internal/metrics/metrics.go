// Package metrics provides latency histograms, per-session serving
// statistics, interval time series, and the max-goodput search used by every
// evaluation in the paper ("the maximum rate of queries such that 99% of
// them are served within their latency SLOs", §7).
package metrics

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"nexus/internal/runner"
	"nexus/internal/session"
)

// Histogram is a logarithmically-bucketed latency histogram with ~2%
// relative precision from 1µs to ~30s. The zero value is ready to use.
//
// It starts sparse: entries lists the buckets its values have hit, in
// index order, each packed as index<<sparseShift | count in 8 bytes. A
// session's latencies hit about a dozen distinct buckets, so most
// histograms never hold more than a few entries. On the (sparseMax+1)th
// distinct bucket, or when an entry's count would reach sparseCountMask,
// it switches for good to the dense form: a window of the bucket indices
// its values have touched, plus up to histSlack spare buckets beyond each
// end, where buckets[i] counts bucket off+i and every bucket outside the
// window is zero. The window grows in either direction and never shrinks,
// so a high-rate session records in O(1). Merge makes the receiver dense;
// Reset keeps the form and its storage for reuse.
type Histogram struct {
	entries  []uint64 // sparse form; unused once buckets is non-nil
	buckets  []uint64 // dense form
	off      int
	count    uint64
	sum      time.Duration
	min, max time.Duration
}

const (
	histBase   = float64(time.Microsecond)
	histGrowth = 1.02
	// histSlack is how far past a new extreme the window extends, so
	// values near the current ones record without regrowing it.
	histSlack = 4
	// sparseMax is the most entries the sparse form holds. Bucket indices
	// stay below 2^11 (bucketIndex(math.MaxInt64) is 1,857), so an index
	// fits above a 48-bit count.
	sparseMax       = 32
	sparseShift     = 48
	sparseCountMask = 1<<sparseShift - 1
)

var histLogGrowth = math.Log(histGrowth)

// logBucketIndex is the bucket formula: 0 below 1µs, else 1 plus the whole
// number of histGrowth factors from 1µs to d. It is monotone in d, so a
// bucket is a range of durations; bucketIndex finds it from the ranges'
// bounds, derived once from this formula, without a logarithm.
func logBucketIndex(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	return 1 + int(math.Log(float64(d)/histBase)/histLogGrowth)
}

// subBits is how many bits after the leading one key a duration's
// bucketStart entry: 2^subBits slices per power of two, each narrower than
// two buckets.
const subBits = 5

var (
	// bucketLow[i] is the smallest duration in bucket i >= 1, for every
	// bucket up to logBucketIndex(math.MaxInt64).
	bucketLow = bucketBounds()
	// bucketStart[b<<subBits | s] is the bucket of the smallest duration of
	// at least 1µs whose leading one is bit b and whose next subBits bits
	// are s.
	bucketStart = bucketStarts()
)

// bucketBounds binary-searches logBucketIndex for each bucket's smallest
// duration, starting from the one below it.
func bucketBounds() []time.Duration {
	top := logBucketIndex(math.MaxInt64)
	low := make([]time.Duration, top+1)
	low[1] = time.Microsecond
	for i := 2; i <= top; i++ {
		lo, hi := low[i-1], time.Duration(math.MaxInt64)
		// Buckets are histGrowth wide, so the next bound lies within a few
		// percent; when the guess is no upper bound, search to the top.
		if g := float64(lo) * 1.05; g < math.MaxInt64/2 && logBucketIndex(time.Duration(g)) >= i {
			hi = time.Duration(g)
		}
		for lo < hi { // logBucketIndex(lo-1) < i, logBucketIndex(hi) >= i
			mid := lo + (hi-lo)/2
			if logBucketIndex(mid) >= i {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		low[i] = lo
	}
	return low
}

func bucketStarts() *[64 << subBits]uint16 {
	var start [64 << subBits]uint16
	for k := range start {
		b, s := k>>subBits, uint64(k&(1<<subBits-1))
		if b <= subBits || b >= 63 {
			continue // below 1µs, or beyond int64
		}
		d := time.Duration(1<<b | s<<(b-subBits))
		start[k] = uint16(logBucketIndex(max(d, time.Microsecond)))
	}
	return &start
}

// bucketIndex returns logBucketIndex(d): the bucket the leading bits of d
// key in bucketStart, moved up past every bucket that starts at or below
// d (at most two).
func bucketIndex(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	u := uint64(d)
	b := bits.Len64(u) - 1
	i := int(bucketStart[b<<subBits|int(u>>(b-subBits))&(1<<subBits-1)])
	for i+1 < len(bucketLow) && bucketLow[i+1] <= d {
		i++
	}
	return i
}

func bucketValue(idx int) time.Duration {
	if idx == 0 {
		return time.Microsecond / 2
	}
	// Geometric midpoint of the bucket.
	lo := histBase * math.Pow(histGrowth, float64(idx-1))
	return time.Duration(lo * math.Sqrt(histGrowth))
}

// cover grows the window, when needed, to hold buckets lo..hi inclusive.
// An end it moves lands histSlack buckets past the new extreme; an end it
// does not need to move stays put.
func (h *Histogram) cover(lo, hi int) {
	newLo, newHi := lo-histSlack, hi+histSlack
	if n := len(h.buckets); n > 0 {
		end := h.off + n - 1
		if lo >= h.off && hi <= end {
			return
		}
		if lo >= h.off {
			newLo = h.off
		}
		if hi <= end {
			newHi = end
		}
	}
	newLo = max(newLo, 0)
	nb := make([]uint64, newHi+1-newLo)
	if len(h.buckets) > 0 {
		copy(nb[h.off-newLo:], h.buckets)
	}
	h.buckets, h.off = nb, newLo
}

// recordSparse counts one value in bucket idx of the sparse form. It
// reports false, changing nothing, when the form cannot take it: idx
// would be entry sparseMax+1, or its entry's count would reach
// sparseCountMask.
func (h *Histogram) recordSparse(idx int) bool {
	key := uint64(idx) << sparseShift
	// The first entry whose index is >= idx; no entry equals key, whose
	// count is 0.
	lo, _ := slices.BinarySearch(h.entries, key)
	if lo < len(h.entries) && h.entries[lo]>>sparseShift == uint64(idx) {
		if h.entries[lo]&sparseCountMask+1 == sparseCountMask {
			return false
		}
		h.entries[lo]++
		return true
	}
	if len(h.entries) == sparseMax {
		return false
	}
	h.entries = append(h.entries, 0)
	copy(h.entries[lo+1:], h.entries[lo:])
	h.entries[lo] = key | 1
	return true
}

// recordDense counts one value in bucket idx of the dense form.
func (h *Histogram) recordDense(idx int) {
	if i := idx - h.off; i < 0 || i >= len(h.buckets) {
		h.cover(idx, idx)
	}
	h.buckets[idx-h.off]++
}

// densify switches h to the dense form, moving its entries into a window
// that covers them. An h with no entries gets its window from the next
// cover.
func (h *Histogram) densify() {
	if h.buckets == nil {
		h.addEntries(h.entries)
		h.entries = nil
	}
}

// addEntries adds sparse entries into h's dense window, growing the window
// to cover them.
func (h *Histogram) addEntries(entries []uint64) {
	if len(entries) == 0 {
		return
	}
	h.cover(int(entries[0]>>sparseShift), int(entries[len(entries)-1]>>sparseShift))
	for _, e := range entries {
		h.buckets[int(e>>sparseShift)-h.off] += e & sparseCountMask
	}
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	idx := bucketIndex(d)
	if h.buckets != nil {
		h.recordDense(idx)
	} else if !h.recordSparse(idx) {
		h.densify()
		h.recordDense(idx)
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest recorded value (0 when empty).
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest recorded value (0 when empty).
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) with ~2% relative error.
// Both forms walk the buckets in index order; the dense form's zero
// buckets never move the running sum, so they answer alike.
func (h *Histogram) Quantile(q float64) time.Duration {
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
	if h.buckets == nil {
		for _, e := range h.entries {
			seen += e & sparseCountMask
			if seen > rank {
				return h.clampedValue(int(e >> sparseShift))
			}
		}
		return h.max
	}
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			return h.clampedValue(h.off + i)
		}
	}
	return h.max
}

// clampedValue returns bucket idx's value, clamped to [min, max].
func (h *Histogram) clampedValue(idx int) time.Duration {
	return min(max(bucketValue(idx), h.min), h.max)
}

// Reset clears all observations, keeping the form and its storage for
// reuse. This is what makes the histogram usable as a tumbling window:
// rotate by summarizing and resetting in place, no per-window allocation.
func (h *Histogram) Reset() {
	h.entries = h.entries[:0]
	clear(h.buckets)
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Merge adds all observations of other into h, leaving h dense.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	h.densify()
	if other.buckets == nil {
		h.addEntries(other.entries)
	} else {
		h.cover(other.off, other.off+len(other.buckets)-1)
		dst := h.buckets[other.off-h.off:]
		for i, c := range other.buckets {
			dst[i] += c
		}
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

// SessionStats accumulates the serving outcome of one session. A request is
// "bad" if it was lost before producing a response or completed after its
// deadline (§4.3). Losses are counted by reason, so admission-control drops
// are distinguishable from failures.
type SessionStats struct {
	Sent      uint64
	Dropped   uint64 // shed by the drop policy (deadline-based admission control)
	Completed uint64
	Missed    uint64 // completed but after the deadline
	// Loss reasons beyond the drop policy.
	Unroutable uint64 // no route existed at the frontend
	Reconfig   uint64 // lost to a control-plane reconfiguration race
	Overload   uint64 // rejected by a bounded backend queue
	Failed     uint64 // lost to a backend failure (queued or in flight)
	Admission  uint64 // shed by frontend token-bucket admission control
	Latency    Histogram
}

// Good returns the number of requests served within their deadline.
func (s *SessionStats) Good() uint64 { return s.Completed - s.Missed }

// Lost returns every request lost before producing a response, across all
// reasons.
func (s *SessionStats) Lost() uint64 {
	return s.Dropped + s.Unroutable + s.Reconfig + s.Overload + s.Failed + s.Admission
}

// Bad returns the number of requests that count against SLO attainment:
// lost for any reason, or completed late.
func (s *SessionStats) Bad() uint64 { return s.Lost() + s.Missed }

// BadRate returns the fraction of sent requests that were lost or late.
// Requests still in flight count as neither.
func (s *SessionStats) BadRate() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Bad()) / float64(s.Sent)
}

// Merge accumulates other into s.
func (s *SessionStats) Merge(other *SessionStats) {
	s.Sent += other.Sent
	s.Dropped += other.Dropped
	s.Completed += other.Completed
	s.Missed += other.Missed
	s.Unroutable += other.Unroutable
	s.Reconfig += other.Reconfig
	s.Overload += other.Overload
	s.Failed += other.Failed
	s.Admission += other.Admission
	s.Latency.Merge(&other.Latency)
}

// Recorder aggregates SessionStats by session. The request path reaches a
// session's stats by its handle (Stats); the string API (Session,
// SessionIDs) resolves IDs through the deployment's session table.
type Recorder struct {
	names *session.Table
	stats []*SessionStats // by handle; nil until the session is first touched
}

// NewRecorder returns an empty recorder over a session table (nil = a table
// of its own).
func NewRecorder(names *session.Table) *Recorder {
	if names == nil {
		names = session.NewTable()
	}
	return &Recorder{names: names}
}

// Stats returns (creating if needed) the stats of a session handle.
func (r *Recorder) Stats(h session.Handle) *SessionStats {
	if int(h) < len(r.stats) {
		if s := r.stats[h]; s != nil {
			return s
		}
	}
	r.stats = session.Fit(r.stats, h)
	s := &SessionStats{}
	r.stats[h] = s
	return s
}

// Session returns (creating if needed) the stats for a session ID.
func (r *Recorder) Session(id string) *SessionStats {
	return r.Stats(r.names.Intern(id))
}

// SessionIDs returns the IDs of the sessions with stats, in sorted order.
func (r *Recorder) SessionIDs() []string {
	ids := []string{}
	for h, s := range r.stats {
		if s != nil {
			ids = append(ids, r.names.ID(session.Handle(h)))
		}
	}
	sort.Strings(ids)
	return ids
}

// Each calls f with every session that has stats, in handle order.
func (r *Recorder) Each(f func(session.Handle, *SessionStats)) {
	for h, s := range r.stats {
		if s != nil {
			f(session.Handle(h), s)
		}
	}
}

// Total returns stats merged across all sessions.
func (r *Recorder) Total() *SessionStats {
	t := &SessionStats{}
	for _, s := range r.stats {
		if s != nil {
			t.Merge(s)
		}
	}
	return t
}

// TimeSeries buckets scalar samples into fixed intervals of virtual time,
// used for the Figure 13 style load / usage / bad-rate panels.
type TimeSeries struct {
	Interval time.Duration
	sums     []float64
	counts   []uint64
}

// NewTimeSeries returns a series with the given bucket interval.
// It panics if interval is not positive.
func NewTimeSeries(interval time.Duration) *TimeSeries {
	if interval <= 0 {
		panic("metrics: time series interval must be positive")
	}
	return &TimeSeries{Interval: interval}
}

// Add records value at virtual time t.
func (ts *TimeSeries) Add(t time.Duration, value float64) {
	idx := int(t / ts.Interval)
	for idx >= len(ts.sums) {
		ts.sums = append(ts.sums, 0)
		ts.counts = append(ts.counts, 0)
	}
	ts.sums[idx] += value
	ts.counts[idx]++
}

// Len returns the number of buckets touched so far.
func (ts *TimeSeries) Len() int { return len(ts.sums) }

// Sum returns the total of values in bucket i.
func (ts *TimeSeries) Sum(i int) float64 {
	if i < 0 || i >= len(ts.sums) {
		return 0
	}
	return ts.sums[i]
}

// Mean returns the mean value in bucket i (0 when empty).
func (ts *TimeSeries) Mean(i int) float64 {
	if i < 0 || i >= len(ts.sums) || ts.counts[i] == 0 {
		return 0
	}
	return ts.sums[i] / float64(ts.counts[i])
}

// Rate returns bucket i's sum divided by the interval in seconds — i.e. a
// per-second rate when Add records unit counts.
func (ts *TimeSeries) Rate(i int) float64 {
	return ts.Sum(i) / ts.Interval.Seconds()
}

// RecoveryTime measures how long a disturbed deployment took to regain
// frac (e.g. 0.95) of its pre-fault goodput. good is a per-interval
// goodput timeline, faultAt the injection time, and preWindow how much
// history before the fault defines the baseline rate (at least one
// bucket). It returns the duration from faultAt to the end of the first
// post-fault bucket whose rate reaches frac times the baseline, and false
// if the timeline never recovers.
func RecoveryTime(good *TimeSeries, faultAt, preWindow time.Duration, frac float64) (time.Duration, bool) {
	if good == nil || good.Interval <= 0 {
		return 0, false
	}
	fb := int(faultAt / good.Interval)
	w := int(preWindow / good.Interval)
	if w < 1 {
		w = 1
	}
	lo := fb - w
	if lo < 0 {
		lo = 0
	}
	if fb <= lo {
		return 0, false
	}
	var pre float64
	for i := lo; i < fb; i++ {
		pre += good.Rate(i)
	}
	pre /= float64(fb - lo)
	if pre <= 0 {
		return 0, true // nothing to recover
	}
	for i := fb + 1; i < good.Len(); i++ {
		if good.Rate(i) >= frac*pre {
			return time.Duration(i+1)*good.Interval - faultAt, true
		}
	}
	return 0, false
}

// GoodputTarget is the goodness criterion used throughout the paper's
// evaluation: at least 99% of requests within the latency SLO.
const GoodputTarget = 0.99

// MaxGoodputK finds the maximum request rate (req/s) in [lo, hi] at which
// eval reports a bad rate of at most 1-target, to within tol (relative).
// It returns 0 if even lo fails and hi if hi passes; both endpoints are
// evaluated together, first. Each round then evaluates k evenly spaced
// candidate rates inside the bracket concurrently (bounded by the runner
// pool) and uses eval's monotonicity to collapse the bracket onto the
// interval between the highest passing and lowest failing probe: a shrink
// factor of 1/(k+1) per round. k = 1 is bisection.
//
// The probe rates depend only on (lo, hi, k), never on worker count or
// completion order, so the result is identical whether the probes run on
// one goroutine or many. eval must be safe for concurrent invocation: each
// call must build its own isolated simulation (its own clock, rng, and
// deployment), which every probe in internal/experiments does.
func MaxGoodputK(lo, hi float64, target float64, tol float64, k int, eval func(rate float64) (badRate float64)) float64 {
	k = max(k, 1)
	if lo <= 0 {
		lo = 1
	}
	if tol <= 0 {
		tol = 0.02
	}
	maxBad := 1 - target
	// Probe the endpoints together: one concurrent round instead of two
	// sequential full simulations.
	ends := runner.Map(2, func(i int) float64 {
		if i == 0 {
			return eval(lo)
		}
		return eval(hi)
	})
	if ends[0] > maxBad {
		return 0
	}
	if ends[1] <= maxBad {
		return hi
	}
	good, bad := lo, hi
	for bad-good > tol*bad {
		width := bad - good
		rates := make([]float64, k)
		for i := range rates {
			rates[i] = good + width*float64(i+1)/float64(k+1)
		}
		results := runner.Map(k, func(i int) float64 { return eval(rates[i]) })
		// Monotone collapse: the highest passing probe raises good, the
		// lowest failing probe lowers bad. Probes between them would be
		// contradictory under strict monotonicity; trusting the
		// highest-pass/lowest-fail pair keeps the bracket valid even when
		// simulation noise perturbs a middle probe.
		newGood, newBad := good, bad
		for i := k - 1; i >= 0; i-- {
			if results[i] <= maxBad {
				newGood = rates[i]
				break
			}
		}
		for i := 0; i < k; i++ {
			if results[i] > maxBad {
				newBad = rates[i]
				break
			}
		}
		if newBad <= newGood {
			// Noise inverted the bracket; settle on the passing probe.
			return newGood
		}
		good, bad = newGood, newBad
	}
	return good
}
