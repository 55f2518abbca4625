package backend

import (
	"fmt"
	"time"

	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
)

// Discipline is how a backend arbitrates its units on the GPU.
type Discipline int

const (
	// RoundRobin cycles through units, one batch at a time — the Nexus GPU
	// scheduler (§6.3 "GPU Multiplexing") and our TF-Serving stand-in.
	RoundRobin Discipline = iota
	// Parallel lets every unit issue work independently — Clipper's
	// one-container-per-model behaviour and the "Nexus-parallel" ablation
	// of Figure 14. Pair with a Shared-mode device to model interference.
	Parallel
)

// Config selects the runtime features under test (the ablation switches of
// §7.3: ED = early drop, OL = overlapped processing).
type Config struct {
	Policy     DropPolicy // nil = EarlyDrop
	Overlap    bool       // overlap CPU pre/post-processing with GPU work
	CPUWorkers int        // preprocessing thread pool size; 0 = 5 (§6.3)
	Discipline Discipline
	// MaxQueue bounds each unit's queue; Enqueue returns ErrQueueFull at
	// capacity. 0 = unbounded (the default; the drop policy sheds load).
	MaxQueue int
	// OnBatch, when set, observes every batch assembled for the GPU, with
	// the backend's incarnation and the batch's planned GPU latency
	// (tracing hook; must not mutate the batch).
	OnBatch func(backendID, unitID string, batch []Request, inc uint64, gpuTime time.Duration)
	// OnDropWindow, when set, observes every drop-policy cull: the window
	// (target batch size) the policy was anchoring and how many queued
	// requests it shed (audit hook).
	OnDropWindow func(backendID, unitID string, window, dropped int)
	// DeferDropped enables the paper's alternative service model (§5):
	// requests that miss their deadline window are executed later at low
	// priority instead of being discarded — they complete late (counted
	// as missed, not dropped) whenever the GPU would otherwise idle.
	DeferDropped bool
}

// maxDeferred bounds each unit's low-priority queue; beyond it, deferred
// requests are really dropped.
const maxDeferred = 4096

// Unit is one schedulable entity on a backend: a session, or a prefix
// group of sessions batched together (§6.3 "Prefix Batching").
type Unit struct {
	ID          string
	Profile     *profiler.Profile
	TargetBatch int
	// Members lists the session IDs served by this unit (for stats); empty
	// means the unit serves the session named by ID.
	Members []string
	// Prefix/Suffix, when both set, make this a prefix-batched group
	// (§6.3): a batch executes the shared prefix once at full batch size,
	// then one suffix invocation per member session actually present in
	// the batch. Profile remains the conservative combined profile used
	// for dispatch estimates.
	Prefix *profiler.Profile
	Suffix *profiler.Profile
	// Slice, when positive, pins the unit to a fractional-SM compute
	// partition of that fraction instead of the shared round-robin round:
	// the unit batches independently and runs concurrently with the other
	// units. Profile should already be scaled for the slice
	// (profiler.SliceProfile); the device adds co-residency interference
	// dynamically.
	Slice float64
}

// CompletionFunc observes every finished or lost request with its outcome.
type CompletionFunc func(req Request, outcome Outcome, completedAt time.Duration)

// Backend is one GPU worker node.
type Backend struct {
	ID    string
	clock *simclock.Clock
	dev   *gpusim.Device
	cfg   Config

	units  []*unitState
	byID   map[string]*unitState
	onDone CompletionFunc

	rrIdx     int
	rrRunning bool

	lastGPUEnd time.Duration
	// batches/items track executed batch statistics.
	batches uint64
	items   uint64

	// partSeq names compute partitions uniquely across reconfigurations, so
	// a new slice for a unit never collides with its draining predecessor.
	partSeq uint64

	// failed marks a crashed node: it serves nothing, rejects enqueues,
	// and stops heartbeating until Restart.
	failed bool
	// inc is the incarnation counter, bumped on every crash; batch
	// completions from a previous incarnation report their requests as
	// failures instead of resuming the old execution chain.
	inc uint64

	hb       *simclock.Ticker
	hbPeriod time.Duration

	// rrStepFn is b.stepRR bound once, so the round-robin loop does not
	// materialize a fresh method value per executed batch.
	rrStepFn func()
	// runPool recycles batchRun state (and its bound callbacks) across
	// batches; the data plane allocates nothing per batch at steady state.
	runPool []*batchRun
	// memberCnt is gpuTime's per-session scratch, reused across batches.
	memberCnt map[string]int
}

type unitState struct {
	Unit
	queue    Queue
	deferred Queue // low-priority overflow when DeferDropped is on
	ready    bool
	running  bool // Parallel discipline or spatial slice: a batch is in flight
	// part is the compute partition a spatial unit (Slice > 0) executes
	// on; nil for temporal units.
	part *gpusim.Partition
	// est is the unit's batch-latency estimator, allocated once so the
	// dispatch loop does not rebuild a closure per Pick call.
	est func(int) time.Duration
	// resume restarts the unit's Parallel-discipline loop after a batch,
	// allocated once for the same reason.
	resume func()
}

// New creates a backend on the given device.
func New(id string, clock *simclock.Clock, dev *gpusim.Device, cfg Config, onDone CompletionFunc) *Backend {
	if cfg.Policy == nil {
		cfg.Policy = EarlyDrop{}
	}
	if cfg.CPUWorkers <= 0 {
		cfg.CPUWorkers = 5
	}
	b := &Backend{
		ID: id, clock: clock, dev: dev, cfg: cfg,
		byID:   make(map[string]*unitState),
		onDone: onDone,
	}
	b.rrStepFn = b.stepRR
	// Batch-run arena: one contiguous block with callbacks bound up front,
	// so the execution pipeline reaches steady state without growing the
	// pool one heap object at a time. runArenaSize covers the in-flight
	// batches of any discipline (RR has one; Parallel has one per unit up
	// to the CPU worker count).
	arena := make([]batchRun, runArenaSize)
	b.runPool = make([]*batchRun, 0, runArenaSize)
	for i := range arena {
		r := &arena[i]
		r.b = b
		r.preFn = r.submitGPU
		r.gpuFn = r.gpuDone
		r.postFn = r.afterPost
		b.runPool = append(b.runPool, r)
	}
	return b
}

// runArenaSize is how many batchRun objects New pre-allocates contiguously.
const runArenaSize = 8

// Device exposes the underlying simulated GPU (for utilization metrics).
func (b *Backend) Device() *gpusim.Device { return b.dev }

// AvgBatchSize returns the mean executed batch size so far.
func (b *Backend) AvgBatchSize() float64 {
	if b.batches == 0 {
		return 0
	}
	return float64(b.items) / float64(b.batches)
}

// UnitIDs returns the configured unit IDs.
func (b *Backend) UnitIDs() []string {
	out := make([]string, len(b.units))
	for i, u := range b.units {
		out[i] = u.ID
	}
	return out
}

// Incarnation returns the backend's crash incarnation counter.
func (b *Backend) Incarnation() uint64 { return b.inc }

// BatchStats returns the cumulative executed batch and item counts (reset
// when the backend is recycled to a new tenant).
func (b *Backend) BatchStats() (batches, items uint64) { return b.batches, b.items }

// QueuedTotal returns the total requests waiting across all unit queues,
// including deferred low-priority overflow.
func (b *Backend) QueuedTotal() int {
	n := 0
	for _, u := range b.units {
		n += u.queue.Len() + u.deferred.Len()
	}
	return n
}

// QueueLen returns the queued request count for a unit (0 if unknown).
func (b *Backend) QueueLen(unitID string) int {
	if u, ok := b.byID[unitID]; ok {
		return u.queue.Len()
	}
	return 0
}

// Configure installs a new unit set. Units whose ID persists keep their
// queue and resident model; new units begin loading their models (which
// takes real time — hundreds of ms, §2.2) and only serve once ready;
// removed units are unloaded and their queued requests dropped.
func (b *Backend) Configure(units []Unit) error {
	if b.failed {
		return fmt.Errorf("backend %s: %w", b.ID, ErrBackendDown)
	}
	newSet := make(map[string]bool, len(units))
	for _, u := range units {
		if u.Profile == nil {
			return fmt.Errorf("backend %s: unit %s has no profile", b.ID, u.ID)
		}
		if u.TargetBatch < 1 {
			return fmt.Errorf("backend %s: unit %s has target batch %d", b.ID, u.ID, u.TargetBatch)
		}
		newSet[u.ID] = true
	}
	// Remove vanished units first to free memory.
	var kept []*unitState
	for _, u := range b.units {
		if newSet[u.ID] {
			kept = append(kept, u)
			continue
		}
		for _, r := range u.queue.PopN(u.queue.Len()) {
			b.complete(r, DropReconfig)
		}
		for _, r := range u.deferred.PopN(u.deferred.Len()) {
			b.complete(r, DropReconfig)
		}
		b.releaseSlice(u)
		b.dev.Unload(u.ID)
		delete(b.byID, u.ID)
	}
	b.units = kept
	for _, nu := range units {
		if existing, ok := b.byID[nu.ID]; ok {
			// A changed slice fraction swaps partitions: the old one drains
			// out (in-flight batches complete on it) while new batches run
			// on the replacement.
			if existing.part != nil && existing.Slice != nu.Slice {
				b.releaseSlice(existing)
			}
			existing.Unit = nu
			if nu.Slice > 0 && existing.part == nil {
				if err := b.attachSlice(existing); err != nil {
					return err
				}
			}
			continue
		}
		us := &unitState{Unit: nu}
		us.est = func(n int) time.Duration { return b.estimate(us, n) }
		us.resume = func() {
			us.running = false
			b.stepUnit(us)
		}
		// Arena sizing from the profiler's dense memo table: no executed
		// batch exceeds MemoBatches, so pre-sizing the ring to two batches'
		// worth and priming two max-size batch slices puts a fresh unit at
		// alloc-free steady state from its first pick.
		memo := nu.Profile.MemoBatches()
		us.queue.Reserve(2 * memo)
		us.queue.PrimeBatches(2, memo)
		if nu.Slice > 0 {
			if err := b.attachSlice(us); err != nil {
				return err
			}
		}
		bytes := nu.Profile.MemBase + int64(nu.TargetBatch)*nu.Profile.MemPerItem
		if err := b.dev.Load(nu.ID, bytes, func() {
			us.ready = true
			b.wake(us)
		}); err != nil {
			return fmt.Errorf("backend %s: %w", b.ID, err)
		}
		b.byID[nu.ID] = us
		b.units = append(b.units, us)
	}
	b.rrIdx = 0
	return nil
}

// attachSlice carves the unit's compute partition out of the device.
func (b *Backend) attachSlice(u *unitState) error {
	b.partSeq++
	part, err := b.dev.Partition(fmt.Sprintf("%s#%d", u.ID, b.partSeq), u.Slice)
	if err != nil {
		return fmt.Errorf("backend %s: unit %s: %w", b.ID, u.ID, err)
	}
	u.part = part
	return nil
}

// releaseSlice hands the unit's partition back to the device; it merges in
// once any in-flight batch drains.
func (b *Backend) releaseSlice(u *unitState) {
	if u.part != nil {
		u.part.Release()
		u.part = nil
	}
}

// SliceStat is the live state of one spatial unit's compute slice, for
// telemetry's per-slice occupancy gauges.
type SliceStat struct {
	UnitID string
	Frac   float64
	Busy   time.Duration // accumulated slice busy time, in-flight included
	Queued int
}

// SliceStats reports every spatial unit's slice in unit order; empty when
// the backend hosts no spatial units.
func (b *Backend) SliceStats() []SliceStat {
	var out []SliceStat
	for _, u := range b.units {
		if u.part == nil {
			continue
		}
		out = append(out, SliceStat{
			UnitID: u.ID,
			Frac:   u.part.Frac,
			Busy:   u.part.BusyTime(),
			Queued: u.queue.Len(),
		})
	}
	return out
}

// Enqueue adds a request to a unit's queue. It fails with ErrBackendDown
// on a crashed node, ErrUnitRemoved when the unit does not exist here (a
// reconfiguration race), and ErrQueueFull at a bounded queue's capacity —
// all wrapped, so callers classify with errors.Is.
func (b *Backend) Enqueue(unitID string, req Request) error {
	if b.failed {
		return fmt.Errorf("backend %s: %w", b.ID, ErrBackendDown)
	}
	u, ok := b.byID[unitID]
	if !ok {
		return fmt.Errorf("backend %s: unit %s: %w", b.ID, unitID, ErrUnitRemoved)
	}
	if b.cfg.MaxQueue > 0 && u.queue.Len() >= b.cfg.MaxQueue {
		return fmt.Errorf("backend %s: unit %s: %w", b.ID, unitID, ErrQueueFull)
	}
	u.queue.Push(req)
	b.wake(u)
	return nil
}

func (b *Backend) complete(r Request, outcome Outcome) {
	if b.onDone != nil {
		b.onDone(r, outcome, b.clock.Now())
	}
}

// Alive reports whether the backend is serving (not crashed).
func (b *Backend) Alive() bool { return !b.failed }

// Fail crashes the backend: every queued and deferred request is lost as a
// failure, resident models are wiped (GPU memory does not survive a node
// crash), and in-flight batches — whose device timers still fire — report
// their requests as failures instead of completing. The node rejects all
// traffic until Restart.
func (b *Backend) Fail() {
	if b.failed {
		return
	}
	b.failed = true
	b.inc++
	for _, u := range b.units {
		for _, r := range u.queue.PopN(u.queue.Len()) {
			b.complete(r, DropFailure)
		}
		for _, r := range u.deferred.PopN(u.deferred.Len()) {
			b.complete(r, DropFailure)
		}
		b.releaseSlice(u)
		b.dev.Unload(u.ID)
	}
	b.units = nil
	b.byID = make(map[string]*unitState)
	b.rrIdx = 0
	b.rrRunning = false
}

// Restart returns a crashed backend to service as a fresh, empty node: no
// units, no resident models. Heartbeats (if started) resume on the next
// tick; the control plane must Configure it before it serves anything.
// A live backend is unchanged.
func (b *Backend) Restart() {
	if !b.failed {
		return
	}
	b.failed = false
	b.lastGPUEnd = 0
}

// Reset drains and clears a live backend before it is recycled to another
// tenant: queued and deferred requests complete as reconfiguration drops,
// units are removed and their models unloaded, and duty-cycle and batch
// statistics are cleared. In-flight batches still complete through their
// own callbacks.
func (b *Backend) Reset() {
	for _, u := range b.units {
		for _, r := range u.queue.PopN(u.queue.Len()) {
			b.complete(r, DropReconfig)
		}
		for _, r := range u.deferred.PopN(u.deferred.Len()) {
			b.complete(r, DropReconfig)
		}
		b.releaseSlice(u)
		b.dev.Unload(u.ID)
	}
	b.units = nil
	b.byID = make(map[string]*unitState)
	b.rrIdx = 0
	b.lastGPUEnd = 0
	b.batches, b.items = 0, 0
}

// StartHeartbeat begins emitting liveness beats every period on the
// simulation clock: sink receives the backend ID at each beat. Beats pause
// while the backend is failed and resume after Restart. Calling it again
// with the same period is a no-op; a different period restarts the ticker.
func (b *Backend) StartHeartbeat(period time.Duration, sink func(id string)) {
	if period <= 0 {
		return
	}
	if b.hb != nil {
		if b.hbPeriod == period {
			return
		}
		b.hb.Stop()
	}
	b.hbPeriod = period
	b.hb = b.clock.StartTicker(period, func() {
		if !b.failed {
			sink(b.ID)
		}
	})
}

// StopHeartbeat cancels heartbeats (no-op when none are running).
func (b *Backend) StopHeartbeat() {
	if b.hb != nil {
		b.hb.Stop()
		b.hb = nil
		b.hbPeriod = 0
	}
}

// estimate returns the predicted completion latency of a batch of size n
// for unit u, dispatched now.
func (b *Backend) estimate(u *unitState, n int) time.Duration {
	if n < 1 {
		n = 1
	}
	gpu := u.Profile.BatchLatency(n)
	pre := b.cpuTime(u.Profile.PreprocCPU, n)
	post := b.cpuTime(u.Profile.PostprocCPU, n)
	if b.cfg.Overlap {
		// Preprocessing is pipelined behind the previous batch when the
		// pipeline is warm; postprocessing happens off the critical path
		// but still delays the response.
		if b.pipelineWarm() {
			return gpu + post
		}
		return pre + gpu + post
	}
	return pre + gpu + post
}

func (b *Backend) cpuTime(perItem time.Duration, n int) time.Duration {
	workers := b.cfg.CPUWorkers
	if n < workers {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	total := time.Duration(n) * perItem
	return (total + time.Duration(workers) - 1) / time.Duration(workers)
}

// pipelineWarm reports whether the CPU workers had a previous batch to
// preprocess behind; we treat the pipeline as warm if the GPU finished
// work recently.
func (b *Backend) pipelineWarm() bool {
	return b.lastGPUEnd > 0 && b.clock.Now()-b.lastGPUEnd <= 5*time.Millisecond
}

// wake nudges the execution engine after an enqueue or model load. Spatial
// units always run their own loop: a pinned slice batches independently of
// the round-robin round regardless of discipline.
func (b *Backend) wake(u *unitState) {
	if u.part != nil {
		b.stepUnit(u)
		return
	}
	switch b.cfg.Discipline {
	case RoundRobin:
		if !b.rrRunning {
			b.rrRunning = true
			b.stepRR()
		}
	case Parallel:
		b.stepUnit(u)
	}
}

// dynamicTarget returns the batch-size target for a unit right now: the
// scheduler-assigned size, grown opportunistically under backlog while the
// head-of-line request's deadline still accommodates the bigger batch. The
// planned batch is a provisioning point, not a cap — draining a burst at a
// larger (more efficient) batch is how the runtime catches back up.
func (b *Backend) dynamicTarget(u *unitState) int {
	target := u.TargetBatch
	qlen := u.queue.Len()
	if qlen <= target {
		return target
	}
	head, ok := u.queue.Head()
	if !ok {
		return target
	}
	budget := head.Deadline - b.clock.Now()
	for target < qlen && target < u.Profile.MaxBatch && b.estimate(u, target+1) <= budget {
		target++
	}
	return target
}

// stepRR runs the round-robin GPU scheduler: find the next unit with work,
// execute one batch, repeat. Goes idle when no unit has work.
func (b *Backend) stepRR() {
	if b.failed {
		b.rrRunning = false
		return
	}
	for scanned := 0; scanned < len(b.units); scanned++ {
		u := b.units[b.rrIdx]
		b.rrIdx = (b.rrIdx + 1) % len(b.units)
		if u.part != nil || !u.ready || u.queue.Len() == 0 {
			continue
		}
		target := b.dynamicTarget(u)
		batch, dropped := b.cfg.Policy.Pick(&u.queue, b.clock.Now(), target, u.est)
		if len(dropped) > 0 && b.cfg.OnDropWindow != nil {
			b.cfg.OnDropWindow(b.ID, u.ID, target, len(dropped))
		}
		b.handleDropped(u, dropped)
		if len(batch) == 0 {
			continue
		}
		b.execute(u, batch, b.rrStepFn)
		return
	}
	// No unit has on-time work; serve deferred low-priority requests, if
	// any, before going idle.
	if b.cfg.DeferDropped {
		for scanned := 0; scanned < len(b.units); scanned++ {
			u := b.units[b.rrIdx]
			b.rrIdx = (b.rrIdx + 1) % len(b.units)
			if u.part != nil || !u.ready || u.deferred.Len() == 0 {
				continue
			}
			n := u.TargetBatch
			if l := u.deferred.Len(); l < n {
				n = l
			}
			b.execute(u, u.deferred.PopN(n), b.rrStepFn)
			return
		}
	}
	b.rrRunning = false
}

// handleDropped either reports drops or, in deferred mode, requeues them
// at low priority (dropping only past the deferred-queue bound). The
// dropped slice is consumed: it returns to the queue's batch free list.
func (b *Backend) handleDropped(u *unitState, dropped []Request) {
	for _, r := range dropped {
		if b.cfg.DeferDropped && u.deferred.Len() < maxDeferred {
			u.deferred.Push(r)
			continue
		}
		b.complete(r, DropDeadline)
	}
	u.queue.Recycle(dropped)
}

// stepUnit runs one unit's independent loop (Parallel discipline).
func (b *Backend) stepUnit(u *unitState) {
	if b.failed || u.running || !u.ready || u.queue.Len() == 0 {
		return
	}
	target := b.dynamicTarget(u)
	batch, dropped := b.cfg.Policy.Pick(&u.queue, b.clock.Now(), target, u.est)
	if len(dropped) > 0 && b.cfg.OnDropWindow != nil {
		b.cfg.OnDropWindow(b.ID, u.ID, target, len(dropped))
	}
	b.handleDropped(u, dropped)
	if len(batch) == 0 {
		if u.queue.Len() > 0 {
			// Policy made progress by dropping; try again.
			b.stepUnit(u)
			return
		}
		if b.cfg.DeferDropped && u.deferred.Len() > 0 {
			n := u.TargetBatch
			if l := u.deferred.Len(); l < n {
				n = l
			}
			b.execute(u, u.deferred.PopN(n), u.resume)
			u.running = true
		}
		return
	}
	u.running = true
	b.execute(u, batch, u.resume)
}

// gpuTime returns the GPU execution time of a batch. Plain units use the
// unit profile; prefix groups charge the shared prefix once at full batch
// size plus one suffix launch per member session present (§6.3) — cheaper
// than the planning estimate when a batch holds few distinct members.
func (b *Backend) gpuTime(u *unitState, batch []Request) time.Duration {
	n := len(batch)
	if u.Prefix == nil || u.Suffix == nil {
		return u.Profile.BatchLatency(n)
	}
	if b.memberCnt == nil {
		b.memberCnt = make(map[string]int, 8)
	}
	perMember := b.memberCnt
	clear(perMember)
	for _, r := range batch {
		perMember[r.Session]++
	}
	total := u.Prefix.BatchLatency(n)
	for _, count := range perMember {
		total += u.Suffix.BatchLatency(count)
	}
	// Never exceed the conservative combined estimate the scheduler and
	// drop policies used.
	if est := u.Profile.BatchLatency(n); total > est {
		total = est
	}
	return total
}

// batchRun is the in-flight state of one executing batch. Runs are pooled
// on the backend and carry their clock/device callbacks as method values
// bound once at construction, so steady-state execution allocates nothing
// per batch. A run returns to the pool at the end of afterPost — the last
// callback in its chain — and only then may be reused.
type batchRun struct {
	b       *Backend
	u       *unitState
	batch   []Request
	inc     uint64
	done    func()
	gpu     time.Duration
	post    time.Duration
	overlap bool

	preFn  func() // bound submitGPU
	gpuFn  func() // bound gpuDone
	postFn func() // bound afterPost
}

func (b *Backend) newRun() *batchRun {
	if n := len(b.runPool); n > 0 {
		r := b.runPool[n-1]
		b.runPool = b.runPool[:n-1]
		return r
	}
	r := &batchRun{b: b}
	r.preFn = r.submitGPU
	r.gpuFn = r.gpuDone
	r.postFn = r.afterPost
	return r
}

// submitGPU hands the batch to the unit's compute partition as it stands
// after preprocessing, or to the whole device when the unit has none. An
// epoch may have removed the unit or changed its slice meanwhile, releasing
// the partition it had when the batch started; the batch then runs where an
// in-flight temporal batch would.
func (r *batchRun) submitGPU() {
	if part := r.u.part; part != nil {
		part.Submit(r.gpu, r.gpuFn)
		return
	}
	r.b.dev.Submit(r.gpu, r.gpuFn)
}

func (r *batchRun) gpuDone() {
	b := r.b
	b.lastGPUEnd = b.clock.Now()
	// Postprocessing happens on the CPU pool; with Overlap it is off the
	// GPU's critical path and the next batch may start immediately.
	b.clock.After(r.post, r.postFn)
	if r.overlap && b.inc == r.inc {
		r.done()
	}
}

func (r *batchRun) afterPost() {
	b := r.b
	outcome := OK
	if b.inc != r.inc {
		// The node crashed while this batch was in flight: the results
		// are lost, and the requests complete as failures.
		outcome = DropFailure
	}
	for _, q := range r.batch {
		b.complete(q, outcome)
	}
	// The batch is fully reported; its slice can serve the next pick.
	r.u.queue.Recycle(r.batch)
	overlap, inc, done := r.overlap, r.inc, r.done
	// Release the run before resuming the loop: done may start the next
	// batch, which is free to reuse this object.
	r.u, r.batch, r.done = nil, nil, nil
	b.runPool = append(b.runPool, r)
	if !overlap && b.inc == inc {
		done()
	}
}

// execute runs one batch: CPU preprocessing, GPU execution, CPU
// postprocessing. With Overlap, preprocessing hides behind the previous
// GPU batch (when warm) and postprocessing does not gate the next batch;
// without it, all three serialize and the GPU idles during CPU work (§6.3
// "Overlapping CPU and GPU computation").
func (b *Backend) execute(u *unitState, batch []Request, done func()) {
	n := len(batch)
	b.batches++
	b.items += uint64(n)
	r := b.newRun()
	r.u, r.batch, r.done = u, batch, done
	// Capture the incarnation: if the node crashes while this batch is in
	// flight, its device timers still fire, but the results are lost — the
	// requests complete as failures and the old execution chain halts
	// rather than resuming on the restarted node.
	r.inc = b.inc
	r.gpu = b.gpuTime(u, batch)
	if b.cfg.OnBatch != nil {
		b.cfg.OnBatch(b.ID, u.ID, batch, r.inc, r.gpu)
	}
	r.post = b.cpuTime(u.Profile.PostprocCPU, n)
	r.overlap = b.cfg.Overlap
	pre := b.cpuTime(u.Profile.PreprocCPU, n)
	if r.overlap && b.pipelineWarm() {
		pre = 0
	}
	b.clock.After(pre, r.preFn)
}
