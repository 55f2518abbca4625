// Package simclock provides a deterministic discrete-event simulation engine.
//
// All Nexus components (GPU devices, backends, frontends, the global
// scheduler, and workload generators) are driven by a single Clock. Events
// are executed in timestamp order; events with equal timestamps run in the
// order they were scheduled, which makes every simulation fully
// deterministic and lets thousand-second deployments replay in milliseconds
// of wall time.
//
// A Clock is single-threaded by design: it has no locks, and all events of
// one simulation run on the goroutine that calls Run/RunUntil/Step.
// Concurrency in the experiment engine comes from running many independent
// Clocks (one per cluster.Deployment) on different goroutines, which is
// safe precisely because clocks share no state.
//
// The scheduling hot path is allocation-light and mostly O(1): timers live
// in a two-level hierarchical timer wheel (dense short-horizon timers —
// request hops, batch completions, duty-cycle ticks — append to level-0
// buckets in constant time) with a binary heap only as overflow for
// far-future events. A small heap orders the current bucket, so events
// still fire in exact (timestamp, schedule-order) sequence. Fired and
// cancelled events are recycled through a per-clock free list, and Timer
// handles are plain values (a generation counter makes stale handles inert
// when their event is reused).
package simclock

import (
	"fmt"
	"time"
)

// Wheel geometry. Level-0 buckets are 2^granuleBits ns wide (~65.5µs), so
// bucket indices are shifts, not divisions. Each level has 2^slotBits
// buckets: level 0 spans ~16.8ms, level 1 spans ~4.3s, and everything
// farther out sits in the overflow heap until its level-1 region opens.
const (
	granuleBits = 16
	slotBits    = 8
	numSlots    = 1 << slotBits
	slotMask    = numSlots - 1
)

// Clock is a discrete-event simulation clock. The zero value is not usable;
// call New.
type Clock struct {
	now time.Duration
	seq uint64
	// stepped counts executed events, for diagnostics and runaway detection.
	stepped uint64
	// limit aborts Run after this many events when non-zero.
	limit uint64
	// live counts scheduled, uncancelled events. Only the tests read it,
	// through Pending.
	live int
	// free recycles event structs; each reuse bumps the event's generation
	// so stale Timer handles cannot touch the new occupant.
	free []*event

	// cur is the absolute level-0 bucket index the cursor has reached:
	// every live event in a bucket at or before cur is in curHeap, and
	// level-0 buckets are only populated within (cur, cur+numSlots).
	cur int64
	// curHeap holds the events at the cursor, ordered by (at, seq); the
	// next event to fire is always its top.
	curHeap eventHeap
	// level0/level1 are the wheel levels: unsorted buckets indexed by the
	// (masked) absolute bucket index at that level's granularity.
	level0 [numSlots][]*event
	level1 [numSlots][]*event
	// n0/n1 count events (including cancelled ones) resident in each
	// level, so the cursor can skip empty spans without scanning.
	n0, n1 int
	// far is the overflow heap for events beyond level 1's span.
	far eventHeap
}

// Timer is a handle to a scheduled event. It can be cancelled before
// firing. Timers are small values: copying one copies the handle, and the
// zero Timer is valid and inert (Stop reports false).
type Timer struct {
	clock *Clock
	ev    *event
	gen   uint64
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing (false if it already fired or was already stopped).
func (t Timer) Stop() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.cancelled {
		return false
	}
	t.ev.cancelled = true
	t.clock.live--
	return true
}

type event struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
	// gen increments every time the struct is recycled; Timer handles
	// capture the generation they were issued for.
	gen uint64
}

// bucketPrealloc is the per-bucket capacity New carves from one contiguous
// arena: first-touch appends on wheel buckets otherwise allocate piecemeal
// for the first wrap of each level, which shows up as a slow allocation
// drip in steady-state measurements. Buckets that outgrow it fall back to
// normal append growth and keep the larger capacity on reuse.
const bucketPrealloc = 4

// New returns a clock starting at time zero with an empty event queue.
func New() *Clock {
	c := &Clock{}
	arena := make([]*event, 2*numSlots*bucketPrealloc)
	for i := range c.level0 {
		c.level0[i] = arena[:0:bucketPrealloc]
		arena = arena[bucketPrealloc:]
		c.level1[i] = arena[:0:bucketPrealloc]
		arena = arena[bucketPrealloc:]
	}
	return c
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Executed returns the total number of events that have fired.
func (c *Clock) Executed() uint64 { return c.stepped }

// SetEventLimit aborts Run/RunUntil with a panic after n events (0 disables).
// It is a guard against runaway simulations in tests.
func (c *Clock) SetEventLimit(n uint64) { c.limit = n }

// alloc takes an event from the free list or allocates a fresh one.
func (c *Clock) alloc() *event {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return e
	}
	return &event{}
}

// recycle returns an event to the free list, invalidating outstanding
// Timer handles and releasing the callback closure.
func (c *Clock) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.cancelled = false
	c.free = append(c.free, e)
}

// bucketOf returns the absolute level-0 bucket index of a timestamp.
func bucketOf(at time.Duration) int64 { return int64(at) >> granuleBits }

// insert places an event into the wheel tier that covers its timestamp.
//
// Level 0 accepts d in [1, numSlots]: bucket cur itself is never stored
// (those events live in curHeap), so all numSlots positions are distinct.
// The inclusive upper bound matters for enterRegion — with the cursor
// parked on the bucket before region r, the region's last bucket is
// exactly numSlots away and must land in level 0, not back in the level-1
// bucket being scattered.
func (c *Clock) insert(e *event) {
	b0 := bucketOf(e.at)
	switch d := b0 - c.cur; {
	case d <= 0:
		c.curHeap.push(e)
	case d <= numSlots:
		c.level0[b0&slotMask] = append(c.level0[b0&slotMask], e)
		c.n0++
	default:
		b1 := b0 >> slotBits
		if b1-(c.cur>>slotBits) < numSlots {
			c.level1[b1&slotMask] = append(c.level1[b1&slotMask], e)
			c.n1++
		} else {
			c.far.push(e)
		}
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: a discrete-event simulation must never travel backwards, and a
// past timestamp always indicates a bug in the caller.
func (c *Clock) At(t time.Duration, fn func()) Timer {
	if t < c.now {
		panic(fmt.Sprintf("simclock: scheduling at %v, before now %v", t, c.now))
	}
	e := c.alloc()
	e.at, e.seq, e.fn = t, c.seq, fn
	c.seq++
	c.live++
	c.insert(e)
	return Timer{clock: c, ev: e, gen: e.gen}
}

// After schedules fn to run d from now. Negative d is clamped to zero.
func (c *Clock) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return c.At(c.now+d, fn)
}

// loadBucket moves one level-0 bucket's events into curHeap, recycling
// cancelled ones on the way.
func (c *Clock) loadBucket(idx int64) {
	bucket := c.level0[idx&slotMask]
	if len(bucket) == 0 {
		return
	}
	c.n0 -= len(bucket)
	for i, e := range bucket {
		bucket[i] = nil
		if e.cancelled {
			c.recycle(e)
			continue
		}
		c.curHeap.push(e)
	}
	c.level0[idx&slotMask] = bucket[:0]
}

// enterRegion opens level-1 region r: overflow events that now fall within
// the wheel's span are pulled in, and the region's level-1 bucket is
// scattered into level-0 buckets. Must be called with the cursor parked on
// the last bucket before the region (cur == r*numSlots - 1).
func (c *Clock) enterRegion(r int64) {
	for c.far.len() > 0 {
		if c.far.top().cancelled {
			c.recycle(c.far.pop())
			continue
		}
		if bucketOf(c.far.topAt())>>slotBits > r {
			break
		}
		c.insert(c.far.pop())
	}
	bucket := c.level1[r&slotMask]
	if len(bucket) == 0 {
		return
	}
	c.n1 -= len(bucket)
	for i, e := range bucket {
		bucket[i] = nil
		if e.cancelled {
			c.recycle(e)
			continue
		}
		c.insert(e)
	}
	c.level1[r&slotMask] = bucket[:0]
}

// advance walks the cursor to the next non-empty bucket, loading it into
// curHeap. It reports false when no live events remain anywhere.
func (c *Clock) advance() bool {
	for {
		if c.n0 == 0 && c.n1 == 0 {
			// Only the overflow heap can hold work: jump the cursor next
			// to its earliest event instead of sweeping empty buckets.
			for c.far.len() > 0 && c.far.top().cancelled {
				c.recycle(c.far.pop())
			}
			if c.far.len() == 0 {
				return false
			}
			e := c.far.pop()
			if b0 := bucketOf(e.at) - 1; b0 > c.cur {
				c.cur = b0
			}
			c.insert(e)
		}
		start := c.cur + 1
		if start&slotMask == 0 {
			c.enterRegion(start >> slotBits)
		}
		regionEnd := (start>>slotBits + 1) << slotBits
		if c.n0 > 0 {
			for s := start; s < regionEnd; s++ {
				if len(c.level0[s&slotMask]) == 0 {
					continue
				}
				c.cur = s
				c.loadBucket(s)
				if c.curHeap.len() > 0 {
					return true
				}
			}
		}
		c.cur = regionEnd - 1
	}
}

// peek returns the next live event without firing it, or nil. It may move
// the wheel cursor forward, which never changes firing order.
func (c *Clock) peek() *event {
	for {
		for c.curHeap.len() > 0 {
			e := c.curHeap.top()
			if !e.cancelled {
				return e
			}
			c.recycle(c.curHeap.pop())
		}
		if !c.advance() {
			return nil
		}
	}
}

// Step executes the next event, advancing the clock to its timestamp.
// It reports whether an event was executed (false when the queue is empty).
func (c *Clock) Step() bool {
	e := c.peek()
	if e == nil {
		return false
	}
	c.curHeap.pop()
	c.now = e.at
	c.stepped++
	c.live--
	fn := e.fn
	// Recycle before running fn: the event is out of the wheel and fn may
	// legitimately schedule new events that reuse the struct.
	c.recycle(e)
	if c.limit != 0 && c.stepped > c.limit {
		panic(fmt.Sprintf("simclock: event limit %d exceeded at t=%v", c.limit, c.now))
	}
	fn()
	return true
}

// Run executes events until the queue is empty.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then advances the clock to
// exactly t. Events scheduled at t by events that run at t are executed.
func (c *Clock) RunUntil(t time.Duration) {
	for {
		e := c.peek()
		if e == nil || e.at > t {
			break
		}
		c.Step()
	}
	if t > c.now {
		c.now = t
	}
}

// Ticker invokes fn every period until stopped. The first invocation is one
// period from the time StartTicker is called.
type Ticker struct {
	clock   *Clock
	period  time.Duration
	fn      func()
	timer   Timer
	stopped bool
}

// StartTicker schedules fn to run every period of virtual time.
// It panics if period is not positive.
func (c *Clock) StartTicker(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("simclock: ticker period must be positive")
	}
	t := &Ticker{clock: c, period: period, fn: fn}
	t.schedule()
	return t
}

// StartTickerAt schedules fn to first run at absolute virtual time first
// (clamped to now when already past), then every period after that. It
// lets periodic samplers align their ticks to an external boundary — e.g.
// telemetry sampling aligned to the end of warmup — instead of to the
// moment the ticker was created. It panics if period is not positive.
func (c *Clock) StartTickerAt(first, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("simclock: ticker period must be positive")
	}
	if first < c.now {
		first = c.now
	}
	t := &Ticker{clock: c, period: period, fn: fn}
	t.timer = c.At(first, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.schedule()
		}
	})
	return t
}

func (t *Ticker) schedule() {
	t.timer = t.clock.After(t.period, func() {
		if t.stopped {
			return
		}
		t.fn()
		if !t.stopped {
			t.schedule()
		}
	})
}

// Stop cancels future ticks.
func (t *Ticker) Stop() {
	t.stopped = true
	t.timer.Stop()
}

// eventHeap is a hand-rolled min-heap ordered by (at, seq). It backs the
// cursor bucket and the far-future overflow; manual sifting avoids the
// interface boxing of container/heap on the hot path.
//
// The layout is struct-of-arrays: the sort keys (at, seq) live in their own
// dense slices, with the event pointers in a parallel slice. Heap sifts are
// compare-heavy, and in SoA form every comparison reads two hot, contiguous
// key arrays instead of dereferencing two event pointers scattered across
// the free-list — the keys for an entire sift path usually share a couple
// of cache lines.
type eventHeap struct {
	at  []time.Duration
	seq []uint64
	ev  []*event
}

func (h *eventHeap) len() int { return len(h.ev) }

// top returns the minimum event without removing it. Callers check len.
func (h *eventHeap) top() *event { return h.ev[0] }

// topAt returns the minimum event's timestamp straight from the key array.
func (h *eventHeap) topAt() time.Duration { return h.at[0] }

func (h *eventHeap) less(i, j int) bool {
	if h.at[i] != h.at[j] {
		return h.at[i] < h.at[j]
	}
	return h.seq[i] < h.seq[j]
}

func (h *eventHeap) swap(i, j int) {
	h.at[i], h.at[j] = h.at[j], h.at[i]
	h.seq[i], h.seq[j] = h.seq[j], h.seq[i]
	h.ev[i], h.ev[j] = h.ev[j], h.ev[i]
}

func (h *eventHeap) push(e *event) {
	h.at = append(h.at, e.at)
	h.seq = append(h.seq, e.seq)
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *eventHeap) pop() *event {
	n := len(h.ev) - 1
	top := h.ev[0]
	h.swap(0, n)
	h.ev[n] = nil
	h.at, h.seq, h.ev = h.at[:n], h.seq[:n], h.ev[:n]
	i := 0
	for {
		small := i
		if l := 2*i + 1; l < n && h.less(l, small) {
			small = l
		}
		if r := 2*i + 2; r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.swap(i, small)
		i = small
	}
	return top
}
