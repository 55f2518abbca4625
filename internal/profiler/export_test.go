package profiler

import (
	"fmt"
	"time"
)

// FitLinear least-squares fits ℓ(b) = αb + β to a measured table
// (points[b-1] = ℓ(b)). It needs at least two points.
func FitLinear(points []time.Duration) (alpha, beta time.Duration, err error) {
	n := len(points)
	if n < 2 {
		return 0, 0, fmt.Errorf("profiler: FitLinear needs >= 2 points, got %d", n)
	}
	var sx, sy, sxx, sxy float64
	for i, p := range points {
		x := float64(i + 1)
		y := float64(p)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	fn := float64(n)
	denom := fn*sxx - sx*sx
	a := (fn*sxy - sx*sy) / denom
	b := (sy - a*sx) / fn
	if b < 0 {
		b = 0
	}
	return time.Duration(a), time.Duration(b), nil
}
