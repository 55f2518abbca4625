package gpusim

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkDeviceSubmitComplete measures one submit-and-complete cycle of
// the lane engine in steady state. Four jobs of distinct sizes stay in
// flight, and each completion submits its job again: queued FIFO on an
// Exclusive device (exclusive), sharing a Shared device (shared-4), or one
// per quarter partition (slices-4). The job free list, the lane rings and
// the clock's event pools are warmed before the timer starts, so steady
// state must not allocate.
func BenchmarkDeviceSubmitComplete(b *testing.B) {
	for _, bc := range []struct {
		name   string
		mode   Mode
		slices bool
	}{
		{"exclusive", Exclusive, false},
		{"shared-4", Shared, false},
		{"slices-4", Exclusive, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, d := newDev(bc.mode)
			var (
				submit [4]func(time.Duration, func())
				cycle  [4]func()
				limit  int
				done   int
			)
			for i := range cycle {
				submit[i] = d.Submit
				if bc.slices {
					p, err := d.Partition(fmt.Sprint(i), 0.25)
					if err != nil {
						b.Fatal(err)
					}
					submit[i] = p.Submit
				}
				work := time.Duration(i+1) * 333 * time.Microsecond
				cycle[i] = func() {
					if done++; done < limit {
						submit[i](work, cycle[i])
					}
				}
			}
			run := func(n int) {
				limit, done = n, 0
				for i := range cycle {
					submit[i](time.Duration(i+1)*333*time.Microsecond, cycle[i])
				}
				c.Run()
			}
			run(10000)
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
		})
	}
}
