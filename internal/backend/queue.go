// Package backend implements the Nexus node runtime (§6.3): per-session
// request queues, batch-aware dispatch with early-drop admission control,
// duty-cycle round-robin execution of multiple sessions on one GPU,
// overlapped CPU pre/post-processing, and prefix-batched execution of
// specialized model families. It also provides the Clipper-like and
// TF-Serving-like execution disciplines used as baselines in §7.
package backend

import (
	"time"

	"nexus/internal/workload"
)

// Request is an enqueued inference request.
type Request = workload.Request

// Queue is a FIFO of requests for one execution unit. Requests of a unit
// share an SLO, so deadlines are non-decreasing in arrival order.
//
// It is a growable ring buffer: Push and PopN are amortized O(1) per
// request, and once the ring and the batch free list have grown to the
// workload's steady state, the dispatch loop runs without allocating.
// Drops and evictions consume requests in place, one at a time, so the
// free list only ever holds batches. Vacated slots are zeroed so popped
// requests do not pin their payloads.
type Queue struct {
	buf  []Request // ring storage; len(buf) is a power of two (or 0)
	head int       // index of the oldest request
	n    int       // live request count
	// reserved is the ring size Reserve asked for, and the size trim
	// returns a larger ring to.
	reserved int
	// free recycles batch slices handed out by PopN: callers return them
	// via Recycle once the batch has fully completed.
	free [][]Request
}

// minQueueCap is the initial ring size on first Push.
const minQueueCap = 16

// maxFreeBatches bounds the per-queue batch free list; at most this many
// batches of one unit are ever in flight at once.
const maxFreeBatches = 8

// Push appends a request.
func (q *Queue) Push(r Request) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = r
	q.n++
}

// grow doubles the ring, unwrapping the live region to the front.
func (q *Queue) grow() {
	newCap := 2 * len(q.buf)
	if newCap < minQueueCap {
		newCap = minQueueCap
	}
	q.resize(newCap)
}

// copyOut copies the oldest len(dst) requests into dst in FIFO order.
func (q *Queue) copyOut(dst []Request) {
	if len(dst) == 0 {
		return
	}
	first := q.buf[q.head:]
	if len(first) > len(dst) {
		first = first[:len(dst)]
	}
	copy(dst, first)
	if rest := len(dst) - len(first); rest > 0 {
		copy(dst[len(first):], q.buf[:rest])
	}
}

// Len returns the queue length.
func (q *Queue) Len() int { return q.n }

// Head returns the oldest request without removing it.
func (q *Queue) Head() (Request, bool) {
	if q.n == 0 {
		return Request{}, false
	}
	return q.buf[q.head], true
}

// At returns the i-th oldest request without removing it. It panics when i
// is out of range, mirroring a slice index.
func (q *Queue) At(i int) Request {
	if i < 0 || i >= q.n {
		panic("backend: Queue.At out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// PopN removes and returns the first n requests (fewer when the queue is
// shorter) as a batch. The returned slice comes from the queue's free list
// when one is available; callers hand it back with Recycle once the batch
// has completed, so steady-state dispatch does not allocate.
func (q *Queue) PopN(n int) []Request {
	if n > q.n {
		n = q.n
	}
	if n <= 0 {
		return nil
	}
	out := q.batchSlice(n)
	q.copyOut(out)
	// Zero the vacated region: a slice-based queue that only re-slices
	// would pin popped requests (and their payloads) indefinitely.
	mask := len(q.buf) - 1
	for i := 0; i < n; i++ {
		q.buf[(q.head+i)&mask] = Request{}
	}
	q.head = (q.head + n) & mask
	q.n -= n
	return out
}

// pop removes and returns the oldest request, which must exist. Drops and
// evictions consume the queue with it, so they build no slice.
func (q *Queue) pop() Request {
	r := q.buf[q.head]
	q.buf[q.head] = Request{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return r
}

// batchSlice returns a length-n slice, reusing a recycled batch when able.
func (q *Queue) batchSlice(n int) []Request {
	for i := len(q.free) - 1; i >= 0; i-- {
		s := q.free[i]
		if cap(s) >= n {
			last := len(q.free) - 1
			q.free[i] = q.free[last]
			q.free[last] = nil
			q.free = q.free[:last]
			return s[:n]
		}
	}
	return make([]Request, n)
}

// Recycle returns a batch obtained from PopN to the queue's free list once
// every request in it has completed. The slice must not be used after the
// call. Recycling foreign slices is allowed (they join the pool); nil and
// zero-capacity slices are ignored.
//
// Only batch[:len(batch)] is cleared. That suffices because every
// free-list slice is zero over its whole capacity: fresh and primed slices
// start zeroed, PopN fills only the first n slots, and Recycle clears them
// again. So callers recycle a batch at the length PopN gave it, without
// re-slicing or appending to it, and a foreign slice must be zero past its
// length, as one from make is. Clearing the whole memo-sized capacity
// would cost as much for a batch of one as for a full one.
//
// A full free list keeps its largest slices: the batch replaces the
// smallest one when it is larger. Otherwise a list filled with small
// batches would make every larger batch allocate, for the rest of the run.
func (q *Queue) Recycle(batch []Request) {
	if cap(batch) == 0 {
		return
	}
	if len(q.free) < maxFreeBatches {
		clear(batch) // release request payloads held by the batch
		q.free = append(q.free, batch[:0])
		return
	}
	small := 0
	for i := range q.free {
		if cap(q.free[i]) < cap(q.free[small]) {
			small = i
		}
	}
	if cap(q.free[small]) < cap(batch) {
		clear(batch)
		q.free[small] = batch[:0]
	}
}

// Reserve pre-sizes the ring to hold at least n requests without growing,
// rounded up to a power of two. Configure calls it with an arena bound
// derived from the unit's profile so steady-state dispatch never regrows.
// The rounded size is recorded even when the ring is already that large:
// it is the size trim hands a grown ring back to.
func (q *Queue) Reserve(n int) {
	c := minQueueCap
	for c < n {
		c <<= 1
	}
	q.reserved = c
	if c <= len(q.buf) {
		return
	}
	q.resize(c)
}

// trim hands a ring that grew past its reserved size back to that size,
// once the live requests fit in it again. It reports whether the ring now
// has its reserved size.
func (q *Queue) trim() bool {
	if len(q.buf) <= q.reserved {
		return true
	}
	if q.n > q.reserved {
		return false
	}
	q.resize(q.reserved)
	return true
}

// resize moves the live requests to a fresh ring of c slots, unwrapped to
// the front.
func (q *Queue) resize(c int) {
	buf := make([]Request, c)
	q.copyOut(buf[:q.n])
	q.buf = buf
	q.head = 0
}

// PrimeBatches seeds the batch free list up to k slices of capacity c each
// (bounded by the free-list cap), so the first picks of a fresh unit reuse
// arena batches instead of allocating their way to steady state.
func (q *Queue) PrimeBatches(k, c int) {
	if c < 1 {
		return
	}
	if k > maxFreeBatches {
		k = maxFreeBatches
	}
	for len(q.free) < k {
		q.free = append(q.free, make([]Request, 0, c))
	}
}

// DropPolicy selects which queued requests to execute and which to drop
// (§4.3, §6.3 "Adaptive Batching").
type DropPolicy interface {
	// Pick returns how many requests at the queue head to drop and how many
	// of the requests after them to take as the batch to execute now; it
	// does not change the queue. target is the scheduler-assigned batch
	// size; estimate(b) is the predicted completion latency of a batch of
	// size b (queueing excluded). When the queue is non-empty, Pick must
	// make progress: drop+take > 0.
	Pick(q *Queue, now time.Duration, target int, estimate func(int) time.Duration) (drop, take int)
}

// LazyDrop is the Clipper-style policy (§4.3): requests are dropped only
// once their deadline is hopeless — already past, or sooner than even a
// batch-of-one execution could finish — and the batch size is whatever the
// earliest remaining request's budget allows.
type LazyDrop struct{}

// Pick implements DropPolicy.
func (LazyDrop) Pick(q *Queue, now time.Duration, target int, estimate func(int) time.Duration) (drop, take int) {
	return lazyPick(q, now, target, estimate, now+estimate(1))
}

// lazyPick is LazyDrop.Pick with the batch-of-one completion bound already
// computed, so EarlyDrop's fallback can reuse the estimate from its scan.
func lazyPick(q *Queue, now time.Duration, target int, estimate func(int) time.Duration, minFinish time.Duration) (drop, take int) {
	// Drop requests whose deadline cannot be met even alone.
	for drop < q.n && q.At(drop).Deadline < minFinish {
		drop++
	}
	rest := q.n - drop
	if rest == 0 {
		return drop, 0
	}
	// Size the batch by the head-of-line request's remaining budget.
	budget := q.At(drop).Deadline - now
	take = 1
	for take < target && take < rest && estimate(take+1) <= budget {
		take++
	}
	return drop, take
}

// EarlyDrop is the Nexus policy (§6.3): slide a window of the target batch
// size through the queue and drop the prefix of requests whose deadlines
// would force a sub-optimal batch. It falls back to lazy behaviour when no
// window fits, so it always makes progress.
type EarlyDrop struct{}

// Pick implements DropPolicy.
func (EarlyDrop) Pick(q *Queue, now time.Duration, target int, estimate func(int) time.Duration) (drop, take int) {
	if target < 1 {
		target = 1
	}
	n := q.Len()
	if n == 0 {
		return 0, 0
	}
	// While a full window remains, the anchor test compares against the
	// same now+estimate(target) at every position — hoist it instead of
	// re-walking the profile's latency lattice per position.
	if full := n - target; full >= 0 {
		threshold := now + estimate(target)
		for i := 0; i <= full; i++ {
			if q.At(i).Deadline >= threshold {
				return i, target
			}
		}
	}
	// Tail positions: the window shrinks one request per step, so each
	// estimate(w) here is computed exactly once.
	est1 := time.Duration(-1)
	start := n - target + 1
	if start < 0 {
		start = 0
	}
	for i := start; i < n; i++ {
		w := n - i
		est := estimate(w)
		if w == 1 {
			est1 = est
		}
		if q.At(i).Deadline >= now+est {
			return i, w
		}
	}
	// No request can anchor a window; behave lazily on what is left,
	// reusing the batch-of-one estimate the tail scan just computed.
	if est1 < 0 {
		est1 = estimate(1)
	}
	return lazyPick(q, now, target, estimate, now+est1)
}
