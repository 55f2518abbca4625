package scheduler

import "time"

// Helpers only the tests use.

// SliceDuty returns the batch-gather window a pinned slice runs at: the
// time to collect `batch` requests at `rate`, clamped so a batch started at
// the window's close still meets the SLO.
func SliceDuty(lat, slo time.Duration, batch int, rate float64) time.Duration {
	gather := time.Duration(float64(batch) / rate * float64(time.Second))
	if m := slo - lat; gather > m {
		gather = m
	}
	if gather < 0 {
		gather = 0
	}
	return gather
}
