package gpusim

import (
	"fmt"
	"time"

	"nexus/internal/simclock"
)

// oracleDevice is the execution model gpusim had before the lane engine,
// kept as a test-only oracle: three separate engines, one per way of
// driving the device. Exclusive mode is a FIFO that arms one timer per job
// as it starts; Shared mode is processor sharing over a set of jobs; and
// partitions are processor sharing over per-partition FIFOs. The property
// and fuzz tests in lane_test.go require the lane engine to reproduce its
// completion times, completion order and busy time exactly.
type oracleDevice struct {
	mode  Mode
	clock *simclock.Clock

	queue   []*job
	qhead   int
	running *job

	shared     map[*job]struct{}
	sharedAt   time.Duration
	sharedNext simclock.Timer

	parts       []*oraclePartition
	partRunning int
	partAt      time.Duration
	partNext    simclock.Timer

	busy, busySince time.Duration
	jobSeq          uint64
	slow            float64
}

type oraclePartition struct {
	id   string
	frac float64
	dev  *oracleDevice

	queue   []*job
	qhead   int
	running *job

	releasing, released bool
	busy, busySince     time.Duration
}

func newOracle(clock *simclock.Clock, mode Mode) *oracleDevice {
	return &oracleDevice{mode: mode, clock: clock, shared: make(map[*job]struct{}), slow: 1}
}

func (d *oracleDevice) allocJob(work time.Duration, done func()) *job {
	if d.slow > 1 {
		work = time.Duration(float64(work) * d.slow)
	}
	j := &job{work: work, seq: d.jobSeq, done: done}
	d.jobSeq++
	return j
}

func (d *oracleDevice) SetSlowdown(factor float64) {
	if factor <= 1 {
		factor = 1
	}
	d.slow = factor
}

func (d *oracleDevice) Submit(work time.Duration, done func()) {
	j := d.allocJob(work, done)
	switch d.mode {
	case Exclusive:
		d.queue = append(d.queue, j)
		d.maybeStart()
	case Shared:
		d.advanceShared()
		if !d.isBusy() {
			d.busySince = d.clock.Now()
		}
		d.shared[j] = struct{}{}
		d.rescheduleShared()
	}
}

func (d *oracleDevice) BusyTime() time.Duration {
	b := d.busy
	if d.isBusy() {
		b += d.clock.Now() - d.busySince
	}
	return b
}

func (d *oracleDevice) isBusy() bool {
	return d.running != nil || len(d.shared) > 0 || d.partRunning > 0
}

func (d *oracleDevice) markIdle() { d.busy += d.clock.Now() - d.busySince }

// Exclusive mode.

func (d *oracleDevice) maybeStart() {
	if d.running != nil || d.qhead == len(d.queue) {
		return
	}
	j := d.queue[d.qhead]
	d.queue[d.qhead] = nil
	d.qhead++
	if d.qhead == len(d.queue) {
		d.queue, d.qhead = d.queue[:0], 0
	}
	if !d.isBusy() {
		d.busySince = d.clock.Now()
	}
	d.running = j
	d.clock.After(j.work, d.onExclusiveDone)
}

func (d *oracleDevice) onExclusiveDone() {
	j := d.running
	d.running = nil
	if !d.isBusy() {
		d.markIdle()
	}
	if j.done != nil {
		j.done()
	}
	d.maybeStart()
}

// Shared mode.

func (d *oracleDevice) advanceShared() {
	now := d.clock.Now()
	elapsed := now - d.sharedAt
	d.sharedAt = now
	if elapsed <= 0 || len(d.shared) == 0 {
		return
	}
	progress := time.Duration(float64(elapsed) * sharedRate(len(d.shared)))
	for j := range d.shared {
		j.work -= progress
	}
}

func (d *oracleDevice) rescheduleShared() {
	d.sharedNext.Stop()
	d.sharedNext = simclock.Timer{}
	if len(d.shared) == 0 {
		return
	}
	var minJob *job
	for j := range d.shared {
		if minJob == nil || j.work < minJob.work {
			minJob = j
		}
	}
	wait := time.Duration(float64(minJob.work) / sharedRate(len(d.shared)))
	if wait < 0 {
		wait = 0
	}
	d.sharedNext = d.clock.After(wait, d.onSharedDone)
}

func (d *oracleDevice) onSharedDone() {
	d.advanceShared()
	var finished []*job
	for j := range d.shared {
		if j.work <= time.Nanosecond {
			finished = append(finished, j)
		}
	}
	for _, j := range finished {
		delete(d.shared, j)
	}
	if !d.isBusy() {
		d.markIdle()
	}
	for i := 0; i < len(finished); i++ {
		for k := i + 1; k < len(finished); k++ {
			if finished[k].seq < finished[i].seq {
				finished[i], finished[k] = finished[k], finished[i]
			}
		}
	}
	for _, j := range finished {
		if j.done != nil {
			j.done()
		}
	}
	d.rescheduleShared()
}

// Partitions.

func (d *oracleDevice) Partition(id string, frac float64) (*oraclePartition, error) {
	if frac <= 0 || frac > 1+fracEpsilon {
		return nil, fmt.Errorf("fraction %v out of (0,1]", frac)
	}
	used := frac
	for _, p := range d.parts {
		if p.id == id {
			return nil, fmt.Errorf("duplicate partition %q", id)
		}
		used += p.frac
	}
	if used > 1+fracEpsilon {
		return nil, fmt.Errorf("fraction %v overflows device", frac)
	}
	p := &oraclePartition{id: id, frac: frac, dev: d}
	d.parts = append(d.parts, p)
	return p, nil
}

func (p *oraclePartition) Submit(work time.Duration, done func()) {
	if p.released {
		panic("submit on released partition")
	}
	d := p.dev
	d.advancePartitions()
	p.queue = append(p.queue, d.allocJob(work, done))
	if p.running == nil {
		p.start()
	}
	d.reschedulePartitions()
}

func (p *oraclePartition) BusyTime() time.Duration {
	b := p.busy
	if p.running != nil {
		b += p.dev.clock.Now() - p.busySince
	}
	return b
}

func (p *oraclePartition) Released() bool { return p.released }

func (p *oraclePartition) Release() {
	if p.released || p.releasing {
		return
	}
	p.releasing = true
	p.dev.maybeDetach(p)
}

func (p *oraclePartition) start() {
	if p.running != nil || p.qhead == len(p.queue) {
		return
	}
	d := p.dev
	j := p.queue[p.qhead]
	p.queue[p.qhead] = nil
	p.qhead++
	if p.qhead == len(p.queue) {
		p.queue, p.qhead = p.queue[:0], 0
	}
	if !d.isBusy() {
		d.busySince = d.clock.Now()
	}
	p.running = j
	p.busySince = d.clock.Now()
	d.partRunning++
}

func (d *oracleDevice) advancePartitions() {
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

func (d *oracleDevice) reschedulePartitions() {
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
	d.partNext = d.clock.After(wait, d.onPartitionDone)
}

func (d *oracleDevice) onPartitionDone() {
	d.advancePartitions()
	var fin []*oraclePartition
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
		if j.done != nil {
			j.done()
		}
		if p.running == nil {
			p.start()
		}
		d.maybeDetach(p)
	}
	d.reschedulePartitions()
}

func (d *oracleDevice) maybeDetach(p *oraclePartition) {
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
