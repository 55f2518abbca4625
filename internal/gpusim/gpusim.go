// Package gpusim simulates a GPU device for DNN serving.
//
// A Device executes opaque work items whose exclusive-execution duration
// the caller supplies (computed from a batching profile). Two execution
// modes reproduce the behaviours §6.3 ("GPU Multiplexing") contrasts:
//
//   - Exclusive: one owner issues kernels; work runs FIFO, back to back.
//     This is how the Nexus node runtime and TF Serving drive a GPU.
//   - Shared: multiple independent clients (Clipper containers,
//     Nexus-parallel) issue kernels concurrently. The GPU runtime
//     interleaves them arbitrarily, modeled as processor sharing with a
//     per-concurrency interference overhead, which increases and blurs
//     everyone's latency — exactly the effect Figure 14 measures.
//
// The device also models GPU memory (models must be loaded before
// execution, loads take hundreds of ms and consume capacity) and tracks
// busy time for utilization accounting.
package gpusim

import (
	"fmt"
	"time"

	"nexus/internal/profiler"
	"nexus/internal/simclock"
)

// Mode selects how concurrent submissions share the device.
type Mode int

const (
	// Exclusive runs work items FIFO, one at a time.
	Exclusive Mode = iota
	// Shared runs work items concurrently under processor sharing with
	// interference overhead.
	Shared
)

// InterferenceOverhead is the per-extra-concurrent-job slowdown applied in
// Shared mode: n concurrent jobs each run at rate 1/(n*(1+o*(n-1))).
// 15% per extra job reproduces the order of degradation Figure 14 shows
// for uncoordinated containers.
const InterferenceOverhead = 0.15

// loadBandwidth is host-to-device weight-transfer bandwidth.
const loadBandwidth = 2 << 30 // bytes/sec

// loadFixed is the fixed per-model initialization cost.
const loadFixed = 100 * time.Millisecond

// Device is one simulated GPU.
type Device struct {
	ID    string
	Spec  profiler.GPUSpec
	Mode  Mode
	clock *simclock.Clock

	memUsed int64
	loaded  map[string]int64

	// Exclusive mode state. queue is a head-indexed slice: Submit appends,
	// maybeStart pops from qhead, and the backing array is reused instead
	// of re-allocated on every drain.
	queue   []*job
	qhead   int
	running *job
	// execDone is the exclusive-mode completion callback, bound once so
	// each job does not allocate a fresh closure.
	execDone func()

	// Shared mode state.
	shared     map[*job]struct{}
	sharedAt   time.Duration // last time remaining-work was advanced
	sharedNext simclock.Timer
	sharedDone func()
	// finBuf is scratch for collecting finished shared jobs.
	finBuf []*job

	// Spatial partition state (see partition.go). parts holds attached
	// partitions in creation order for deterministic iteration.
	parts       []*Partition
	partRunning int           // partitions with a job executing right now
	partAt      time.Duration // last time partition progress was advanced
	partNext    simclock.Timer
	partDone    func()
	partFin     []*Partition // scratch for collecting finished partitions

	// Utilization accounting.
	busy      time.Duration
	busySince time.Duration
	idleFrom  time.Duration

	jobSeq uint64
	// freeJobs recycles job structs through the submit/complete hot path.
	freeJobs []*job

	// slow stretches the execution time of newly submitted work (straggler
	// injection): effective work = work * slow. Always ≥ the neutral 1.
	slow float64
}

type job struct {
	work      time.Duration // exclusive-execution time remaining
	submitted time.Duration
	seq       uint64 // submission order, for deterministic tie-breaks
	done      func()
}

// New creates a device of the given type. It panics on unknown GPU types,
// which indicates a configuration bug.
func New(clock *simclock.Clock, id string, gpu profiler.GPUType, mode Mode) *Device {
	spec, err := profiler.Spec(gpu)
	if err != nil {
		panic(err)
	}
	d := &Device{
		ID:     id,
		Spec:   spec,
		Mode:   mode,
		clock:  clock,
		loaded: make(map[string]int64),
		shared: make(map[*job]struct{}),
		slow:   1,
	}
	d.execDone = d.onExclusiveDone
	d.sharedDone = d.onSharedDone
	return d
}

// allocJob takes a job from the free list or allocates a fresh one.
func (d *Device) allocJob(work time.Duration, done func()) *job {
	var j *job
	if n := len(d.freeJobs); n > 0 {
		j = d.freeJobs[n-1]
		d.freeJobs[n-1] = nil
		d.freeJobs = d.freeJobs[:n-1]
	} else {
		j = &job{}
	}
	j.work, j.submitted, j.seq, j.done = work, d.clock.Now(), d.jobSeq, done
	d.jobSeq++
	return j
}

// recycleJob returns a completed job to the free list, releasing its
// completion closure.
func (d *Device) recycleJob(j *job) {
	j.done = nil
	d.freeJobs = append(d.freeJobs, j)
}

// MemUsed returns the bytes currently allocated for loaded models.
func (d *Device) MemUsed() int64 { return d.memUsed }

// MemFree returns remaining capacity.
func (d *Device) MemFree() int64 { return d.Spec.MemBytes - d.memUsed }

// LoadedKeys returns the number of resident models.
func (d *Device) LoadedKeys() int { return len(d.loaded) }

// LoadTime returns how long loading `bytes` of weights takes.
func LoadTime(bytes int64) time.Duration {
	return loadFixed + time.Duration(float64(bytes)/float64(loadBandwidth)*float64(time.Second))
}

// Load begins loading a model's weights; onReady fires when the model is
// usable. Loading is admission-checked against memory capacity. Loading an
// already-resident key is a no-op that fires onReady immediately.
func (d *Device) Load(key string, bytes int64, onReady func()) error {
	if _, ok := d.loaded[key]; ok {
		if onReady != nil {
			d.clock.After(0, onReady)
		}
		return nil
	}
	if bytes > d.MemFree() {
		return fmt.Errorf("gpusim %s: loading %s needs %d bytes, %d free", d.ID, key, bytes, d.MemFree())
	}
	d.memUsed += bytes
	d.loaded[key] = bytes
	if onReady != nil {
		d.clock.After(LoadTime(bytes), onReady)
	}
	return nil
}

// Unload releases a model's memory immediately.
func (d *Device) Unload(key string) {
	if bytes, ok := d.loaded[key]; ok {
		d.memUsed -= bytes
		delete(d.loaded, key)
	}
}

// SetSlowdown scales the execution time of work submitted from now on by
// factor (straggler injection; 1 = nominal speed, 2 = twice as slow).
// Work already queued or running is unaffected. Factors ≤ 1 (including the
// reset value 0) restore nominal speed — the model is a degraded node, not
// an overclocked one.
func (d *Device) SetSlowdown(factor float64) {
	if factor <= 1 {
		factor = 1
	}
	d.slow = factor
}

// Submit enqueues a work item that needs `work` of exclusive GPU time;
// done fires at completion. Non-positive work panics (profile bug).
func (d *Device) Submit(work time.Duration, done func()) {
	if work <= 0 {
		panic(fmt.Sprintf("gpusim %s: non-positive work %v", d.ID, work))
	}
	if d.slow > 1 {
		work = time.Duration(float64(work) * d.slow)
	}
	j := d.allocJob(work, done)
	switch d.Mode {
	case Exclusive:
		d.queue = append(d.queue, j)
		d.maybeStart()
	case Shared:
		d.advanceShared()
		if !d.isBusy() {
			d.markBusy()
		}
		d.shared[j] = struct{}{}
		d.rescheduleShared()
	}
}

// BusyTime returns accumulated busy time (including a current in-progress
// busy period up to now).
func (d *Device) BusyTime() time.Duration {
	b := d.busy
	if d.isBusy() {
		b += d.clock.Now() - d.busySince
	}
	return b
}

func (d *Device) isBusy() bool {
	return d.running != nil || len(d.shared) > 0 || d.partRunning > 0
}

func (d *Device) markBusy() {
	d.busySince = d.clock.Now()
}

func (d *Device) markIdle() {
	d.busy += d.clock.Now() - d.busySince
}

// --- exclusive mode ----------------------------------------------------

func (d *Device) maybeStart() {
	if d.running != nil || d.qhead == len(d.queue) {
		return
	}
	j := d.queue[d.qhead]
	d.queue[d.qhead] = nil
	d.qhead++
	switch {
	case d.qhead == len(d.queue):
		// Drained: rewind to reuse the backing array.
		d.queue = d.queue[:0]
		d.qhead = 0
	case d.qhead > 64 && d.qhead*2 >= len(d.queue):
		// Mostly-consumed prefix: slide the tail down so a device that
		// never fully drains still has bounded queue memory.
		n := copy(d.queue, d.queue[d.qhead:])
		for i := n; i < len(d.queue); i++ {
			d.queue[i] = nil
		}
		d.queue = d.queue[:n]
		d.qhead = 0
	}
	if !d.isBusy() {
		d.markBusy()
	}
	d.running = j
	d.clock.After(j.work, d.execDone)
}

// onExclusiveDone completes the running job. It is bound once at device
// construction (see execDone) so job completion allocates no closure.
func (d *Device) onExclusiveDone() {
	j := d.running
	d.running = nil
	if !d.isBusy() {
		d.markIdle()
	}
	done := j.done
	d.recycleJob(j)
	if done != nil {
		done()
	}
	d.maybeStart()
}

// --- shared (processor sharing) mode ------------------------------------

// rate returns per-job progress per unit time with n concurrent jobs.
func sharedRate(n int) float64 {
	if n <= 0 {
		return 0
	}
	return 1 / (float64(n) * (1 + InterferenceOverhead*float64(n-1)))
}

// advanceShared applies elapsed progress to all active shared jobs.
func (d *Device) advanceShared() {
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

// rescheduleShared sets the completion timer for the job with least
// remaining work.
func (d *Device) rescheduleShared() {
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
	rate := sharedRate(len(d.shared))
	wait := time.Duration(float64(minJob.work) / rate)
	if wait < 0 {
		wait = 0
	}
	d.sharedNext = d.clock.After(wait, d.sharedDone)
}

// onSharedDone fires when the shared job with least remaining work should
// finish. Bound once at construction (see sharedDone) to keep reschedules
// allocation-free.
func (d *Device) onSharedDone() {
	d.advanceShared()
	// Complete every job whose work is exhausted (ties finish together).
	finished := d.finBuf[:0]
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
	// Deterministic completion order: by submission sequence.
	for i := 0; i < len(finished); i++ {
		for k := i + 1; k < len(finished); k++ {
			if finished[k].seq < finished[i].seq {
				finished[i], finished[k] = finished[k], finished[i]
			}
		}
	}
	for _, j := range finished {
		done := j.done
		d.recycleJob(j)
		if done != nil {
			done()
		}
	}
	for i := range finished {
		finished[i] = nil
	}
	d.finBuf = finished[:0]
	d.rescheduleShared()
}
