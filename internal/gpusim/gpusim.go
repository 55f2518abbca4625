// Package gpusim simulates a GPU device for DNN serving.
//
// A Device executes opaque work items whose exclusive-execution duration
// the caller supplies (computed from a batching profile). Every work item
// runs on a lane (lane.go): a lane is a FIFO of jobs, and a set of lanes
// runs the head job of each busy lane at a rate r(k) that depends only on
// the number k of busy lanes. The two modes §6.3 ("GPU Multiplexing")
// contrasts are two ways of filling the device's lanes:
//
//   - Exclusive: one owner issues kernels; work runs FIFO, back to back,
//     on a single lane at rate 1. This is how the Nexus node runtime and TF
//     Serving drive a GPU.
//   - Shared: multiple independent clients (Clipper containers,
//     Nexus-parallel) issue kernels concurrently. The GPU runtime
//     interleaves them arbitrarily: each job gets a lane of its own and k
//     jobs share the device at 1/(k·(1+o·(k−1))) each, processor sharing
//     with a per-concurrency interference overhead, which increases and
//     blurs everyone's latency — exactly the effect Figure 14 measures.
//
// Compute partitions (partition.go) are lanes in a second set that runs
// beside the device's own, one lane per fractional slice.
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

	// whole runs the work submitted to the device itself: one lane in
	// Exclusive mode, a lane per job in Shared mode. slices runs the compute
	// partitions, a lane each. The two sets are timed independently, so a
	// whole-device batch running beside slices neither slows them nor is
	// slowed by them.
	whole, slices laneSet

	// Utilization accounting: the union of both sets' busy periods.
	busy      time.Duration
	busySince time.Duration

	jobSeq uint64

	// slow stretches the execution time of newly submitted work (straggler
	// injection): effective work = work * slow. Always ≥ the neutral 1.
	slow float64
}

type job struct {
	work time.Duration // exclusive-execution time remaining
	seq  uint64        // submission order, for deterministic tie-breaks
	done func()
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
		slow:   1,
	}
	// sharedRate(1) is exactly 1, so the Exclusive lane runs at full speed.
	d.whole.init(d, sharedRate, mode == Shared)
	d.slices.init(d, partRate, true)
	if mode == Exclusive {
		d.whole.lanes = []*lane{{}}
	}
	return d
}

// newJob stretches work by the current slowdown and stamps the job with its
// submission order.
func (d *Device) newJob(work time.Duration, done func()) job {
	if d.slow > 1 {
		work = time.Duration(float64(work) * d.slow)
	}
	d.jobSeq++
	return job{work: work, seq: d.jobSeq, done: done}
}

// MemUsed returns the bytes currently allocated for loaded models.
func (d *Device) MemUsed() int64 { return d.memUsed }

// MemFree returns remaining capacity.
func (d *Device) MemFree() int64 { return d.Spec.MemBytes - d.memUsed }

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
	var l *lane
	if d.Mode == Shared {
		l = d.whole.idleLane() // a lane per job
	} else {
		l = d.whole.lanes[0]
	}
	d.whole.submit(l, d.newJob(work, done))
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
	return d.whole.busy > 0 || d.slices.busy > 0
}

// sharedRate is per-job progress per unit time with n jobs sharing the
// device: 1/(n·(1+o·(n−1))).
func sharedRate(n int) float64 {
	if n <= 0 {
		return 0
	}
	return 1 / (float64(n) * (1 + InterferenceOverhead*float64(n-1)))
}
