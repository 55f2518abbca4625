package gpusim

import (
	"fmt"
	"time"

	"nexus/internal/profiler"
	"nexus/internal/simclock"
)

// Spatial compute partitions (ROADMAP item 3). A Device can be split into
// fractional-SM slices, MPS/MIG-style: each Partition owns a fraction of
// the device's compute and runs its own FIFO stream, concurrently with the
// other partitions. Callers submit work already scaled for the slice
// fraction (profiler.SliceProfile); the device layers on the dynamic
// co-residency cost — with k partitions executing at once, every running
// job progresses at rate 1/(1 + SpatialInterference·(k−1)), the memory-
// bandwidth/L2 contention term of the profiler's interference model. A
// partition merges back into the device when Release is called and its
// stream drains.

// Partition is a fractional compute slice of a Device.
type Partition struct {
	ID   string
	Frac float64

	dev *Device

	// FIFO stream, head-indexed like Device.queue.
	queue   []*job
	qhead   int
	running *job

	releasing bool
	released  bool

	// Per-slice utilization accounting.
	busy      time.Duration
	busySince time.Duration
}

// fracEpsilon absorbs float accumulation when slices sum to exactly 1.
const fracEpsilon = 1e-9

// Partition carves a compute slice of the given fraction out of the device.
// Fractions of all attached partitions may not exceed 1.
func (d *Device) Partition(id string, frac float64) (*Partition, error) {
	if frac <= 0 || frac > 1+fracEpsilon {
		return nil, fmt.Errorf("gpusim %s: partition %q fraction %v out of (0,1]", d.ID, id, frac)
	}
	used := frac
	for _, p := range d.parts {
		if p.ID == id {
			return nil, fmt.Errorf("gpusim %s: duplicate partition %q", d.ID, id)
		}
		used += p.Frac
	}
	if used > 1+fracEpsilon {
		return nil, fmt.Errorf("gpusim %s: partition %q fraction %v overflows device (%.3f used)", d.ID, id, frac, used-frac)
	}
	if d.partDone == nil {
		d.partDone = d.onPartitionDone
	}
	p := &Partition{ID: id, Frac: frac, dev: d}
	d.parts = append(d.parts, p)
	return p, nil
}

// Partitions returns the attached (not yet merged-back) partitions in
// creation order.
func (d *Device) Partitions() []*Partition {
	return d.parts
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
	if p.released {
		panic(fmt.Sprintf("gpusim %s/%s: submit on released partition", p.dev.ID, p.ID))
	}
	d := p.dev
	if d.slow > 1 {
		work = time.Duration(float64(work) * d.slow)
	}
	d.advancePartitions()
	j := d.allocJob(work, done)
	p.queue = append(p.queue, j)
	if p.running == nil {
		p.start()
	}
	d.reschedulePartitions()
}

// BusyTime returns the partition's accumulated busy time, including the
// in-flight job's elapsed execution.
func (p *Partition) BusyTime() time.Duration {
	b := p.busy
	if p.running != nil {
		b += p.dev.clock.Now() - p.busySince
	}
	return b
}

// Released reports whether the partition has merged back into the device.
func (p *Partition) Released() bool { return p.released }

// Release marks the partition for merge-back. An idle partition detaches
// immediately; one with queued or running work detaches when it drains, so
// in-flight completion callbacks still run.
func (p *Partition) Release() {
	if p.released || p.releasing {
		return
	}
	p.releasing = true
	p.dev.maybeDetach(p)
}

// start pops the partition's next queued job into execution. The caller is
// responsible for advancing progress first and rescheduling after.
func (p *Partition) start() {
	if p.running != nil || p.qhead == len(p.queue) {
		return
	}
	d := p.dev
	j := p.queue[p.qhead]
	p.queue[p.qhead] = nil
	p.qhead++
	if p.qhead == len(p.queue) {
		p.queue = p.queue[:0]
		p.qhead = 0
	}
	if !d.isBusy() {
		d.markBusy()
	}
	p.running = j
	p.busySince = d.clock.Now()
	d.partRunning++
}

// advancePartitions applies elapsed progress to every running partition job
// at the current co-residency rate.
func (d *Device) advancePartitions() {
	now := d.clock.Now()
	elapsed := now - d.partAt
	d.partAt = now
	if elapsed <= 0 || d.partRunning == 0 {
		return
	}
	progress := time.Duration(float64(elapsed) * partRate(d.partRunning))
	for _, p := range d.parts {
		if p.running != nil {
			p.running.work -= progress
		}
	}
}

// reschedulePartitions arms the single completion timer for the running
// partition job with the least remaining work.
func (d *Device) reschedulePartitions() {
	d.partNext.Stop()
	d.partNext = simclock.Timer{}
	if d.partRunning == 0 {
		return
	}
	var minJob *job
	for _, p := range d.parts {
		if j := p.running; j != nil {
			if minJob == nil || j.work < minJob.work {
				minJob = j
			}
		}
	}
	wait := time.Duration(float64(minJob.work) / partRate(d.partRunning))
	if wait < 0 {
		wait = 0
	}
	d.partNext = d.clock.After(wait, d.partDone)
}

// onPartitionDone fires when the leading partition job should finish. Bound
// once (see partDone) to keep reschedules allocation-free.
func (d *Device) onPartitionDone() {
	d.advancePartitions()
	// Collect every partition whose running job is exhausted; ties finish
	// together, completing in submission order for determinism.
	fin := d.partFin[:0]
	for _, p := range d.parts {
		if p.running != nil && p.running.work <= time.Nanosecond {
			fin = append(fin, p)
		}
	}
	for i := 0; i < len(fin); i++ {
		for k := i + 1; k < len(fin); k++ {
			if fin[k].running.seq < fin[i].running.seq {
				fin[i], fin[k] = fin[k], fin[i]
			}
		}
	}
	for _, p := range fin {
		j := p.running
		p.running = nil
		p.busy += d.clock.Now() - p.busySince
		d.partRunning--
		if !d.isBusy() {
			d.markIdle()
		}
		done := j.done
		d.recycleJob(j)
		if done != nil {
			done()
		}
		// The completion callback may have submitted follow-up work (which
		// starts the partition itself); otherwise pull the next queued job.
		if p.running == nil {
			p.start()
		}
		d.maybeDetach(p)
	}
	for i := range fin {
		fin[i] = nil
	}
	d.partFin = fin[:0]
	d.reschedulePartitions()
}

// maybeDetach merges a drained, release-marked partition back into the
// device, returning its compute fraction to the pool.
func (d *Device) maybeDetach(p *Partition) {
	if !p.releasing || p.released || p.running != nil || p.qhead != len(p.queue) {
		return
	}
	p.released = true
	for i, q := range d.parts {
		if q == p {
			d.parts = append(d.parts[:i], d.parts[i+1:]...)
			break
		}
	}
}
