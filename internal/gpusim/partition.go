package gpusim

import (
	"fmt"
	"time"

	"nexus/internal/profiler"
)

// Spatial compute partitions. A Device can be split into fractional-SM
// slices, MPS/MIG-style: each Partition owns a fraction of the device's
// compute and is one FIFO lane in the device's slice lane set, running
// concurrently with the other partitions. Callers submit work already
// scaled for the slice fraction (profiler.SliceProfile); the lane set
// layers on the dynamic co-residency cost — with k partitions executing at
// once, every running head progresses at rate 1/(1 + SpatialInterference·
// (k−1)), the memory-bandwidth/L2 contention term of the profiler's
// interference model. A partition merges back into the device when Release
// is called and its lane drains.

// Partition is a fractional compute slice of a Device.
type Partition struct {
	ID   string
	Frac float64

	dev  *Device
	lane lane
}

// fracEpsilon absorbs float accumulation when slices sum to exactly 1.
const fracEpsilon = 1e-9

// Partition carves a compute slice of the given fraction out of the device.
// Fractions of all attached partitions may not exceed 1.
func (d *Device) Partition(id string, frac float64) (*Partition, error) {
	if !(frac > 0 && frac <= 1+fracEpsilon) {
		return nil, fmt.Errorf("gpusim %s: partition %q fraction %v out of (0,1]", d.ID, id, frac)
	}
	used := frac
	for _, l := range d.slices.lanes {
		if l.part.ID == id {
			return nil, fmt.Errorf("gpusim %s: duplicate partition %q", d.ID, id)
		}
		used += l.part.Frac
	}
	if used > 1+fracEpsilon {
		return nil, fmt.Errorf("gpusim %s: partition %q fraction %v overflows device (%.3f used)", d.ID, id, frac, used-frac)
	}
	p := &Partition{ID: id, Frac: frac, dev: d}
	p.lane.part = p
	d.slices.lanes = append(d.slices.lanes, &p.lane)
	return p, nil
}

// Partitions returns the attached (not yet merged-back) partitions in
// creation order.
func (d *Device) Partitions() []*Partition {
	ps := make([]*Partition, len(d.slices.lanes))
	for i, l := range d.slices.lanes {
		ps[i] = l.part
	}
	return ps
}

// partRate is per-running-job progress per unit time with k partitions
// executing concurrently. Unlike Shared mode there is no 1/k term — each
// partition owns its SMs — only the co-residency interference cost.
func partRate(k int) float64 {
	if k <= 0 {
		return 0
	}
	return 1 / profiler.InterferenceFactor(k-1)
}

// Submit enqueues slice-scaled work on the partition; done fires at
// completion. Panics on non-positive work or a released partition.
func (p *Partition) Submit(work time.Duration, done func()) {
	if work <= 0 {
		panic(fmt.Sprintf("gpusim %s/%s: non-positive work %v", p.dev.ID, p.ID, work))
	}
	if p.lane.released {
		panic(fmt.Sprintf("gpusim %s/%s: submit on released partition", p.dev.ID, p.ID))
	}
	p.dev.slices.submit(&p.lane, p.dev.newJob(work, done))
}

// BusyTime returns the partition's accumulated busy time, including the
// in-flight job's elapsed execution.
func (p *Partition) BusyTime() time.Duration {
	b := p.lane.busy
	if p.lane.running {
		b += p.dev.clock.Now() - p.lane.busySince
	}
	return b
}

// Release marks the partition for merge-back. An idle partition detaches
// immediately; one with queued or running work detaches when it drains, so
// in-flight completion callbacks still run.
func (p *Partition) Release() {
	if !p.lane.releasing {
		p.lane.releasing = true
		p.dev.slices.maybeDetach(&p.lane)
	}
}
