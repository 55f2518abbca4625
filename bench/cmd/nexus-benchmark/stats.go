package main

import (
	"math"
	"sort"
	"time"

	"nexus/internal/metrics"
)

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// tailQuantile returns the highest quantile, at most q, that leaves at
// least ten of n samples beyond it. Below 20 samples no tail quantile
// qualifies and it falls back to the median.
func tailQuantile(n int, q float64) float64 {
	if hi := 1 - tailSamples/float64(n); hi < q { // -Inf when n is 0
		q = hi
	}
	if q < 0.5 {
		q = 0.5
	}
	return q
}

// bucketGrowth is the width of metrics.Histogram's log buckets: each spans
// a factor of 1.02 (the package's documented ~2% precision).
const bucketGrowth = 1.02

// histQuantile estimates the q-quantile of h, in milliseconds, by linear
// interpolation across the log bucket that holds it. Histogram.Quantile
// returns the bucket's midpoint, which reads the same for every seed whose
// quantile falls in the same bucket; interpolating by rank stays inside
// that bucket but follows the distribution.
func histQuantile(h *metrics.Histogram, q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	// byRank returns the bucket value holding the sample of rank r.
	byRank := func(r int) time.Duration { return h.Quantile((float64(r) + 0.5) / float64(n)) }
	rank := int(q * float64(n))
	if rank >= int(n) {
		rank = int(n) - 1
	}
	mid := byRank(rank)
	// The first and last rank in mid's bucket.
	lo := sort.Search(rank+1, func(r int) bool { return byRank(r) == mid })
	hi := rank + sort.Search(int(n)-rank, func(k int) bool { return byRank(rank+k) != mid }) - 1
	half := math.Sqrt(bucketGrowth)
	bottom, width := float64(mid)/half, float64(mid)*(half-1/half)
	frac := (float64(rank-lo) + 0.5) / float64(hi-lo+1)
	return (bottom + frac*width) / float64(time.Millisecond)
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty). xs is
// sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[int(q*float64(len(xs)-1))]
}

// median returns the middle value of xs, averaging the two middle values
// of an even count (0 when empty). xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
