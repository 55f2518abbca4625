package metrics

import "time"

// FractionAbove returns the fraction of observations strictly greater
// than limit, up to bucket resolution.
func (h *Histogram) FractionAbove(limit time.Duration) float64 {
	if h.count == 0 {
		return 0
	}
	lim := bucketIndex(limit)
	var above uint64
	for _, e := range h.entries {
		if int(e>>sparseShift) > lim {
			above += e & sparseCountMask
		}
	}
	// The first window slot above limit's bucket, clamped to the window.
	start := min(max(lim+1-h.off, 0), len(h.buckets))
	for _, c := range h.buckets[start:] {
		above += c
	}
	return float64(above) / float64(h.count)
}
