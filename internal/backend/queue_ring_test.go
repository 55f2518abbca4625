package backend

import (
	"math/rand"
	"testing"
	"time"
)

// ringReq builds a request with an ID-derived deadline for ring tests.
func ringReq(id uint64, deadline time.Duration) Request {
	return Request{ID: id, Session: 1, Deadline: deadline}
}

// TestRingWraparound pins FIFO order across the ring seam: pops open space
// at the front, pushes wrap past the end, and At/Head/PopN must still see
// arrival order.
func TestRingWraparound(t *testing.T) {
	var q Queue
	id := uint64(0)
	push := func(k int) {
		for i := 0; i < k; i++ {
			q.Push(ringReq(id, time.Duration(id)))
			id++
		}
	}
	next := uint64(0)
	pop := func(k int) {
		batch := q.PopN(k)
		if len(batch) != k {
			t.Fatalf("PopN(%d) returned %d requests", k, len(batch))
		}
		for _, r := range batch {
			if r.ID != next {
				t.Fatalf("popped ID %d, want %d", r.ID, next)
			}
			next++
		}
	}
	// Fill to the initial capacity, then repeatedly pop a few and push a
	// few so the live region crosses the seam many times.
	push(minQueueCap)
	for round := 0; round < 10; round++ {
		pop(5)
		push(5)
		if q.Len() != minQueueCap {
			t.Fatalf("len = %d, want %d", q.Len(), minQueueCap)
		}
		for i := 0; i < q.Len(); i++ {
			if got := q.At(i).ID; got != next+uint64(i) {
				t.Fatalf("At(%d) = %d, want %d", i, got, next+uint64(i))
			}
		}
	}
}

// TestRingGrowWhileWrapped pins that growing a ring whose live region wraps
// the seam unwraps it correctly: no request lost, duplicated, or reordered.
func TestRingGrowWhileWrapped(t *testing.T) {
	var q Queue
	id := uint64(0)
	for i := 0; i < minQueueCap; i++ {
		q.Push(ringReq(id, 0))
		id++
	}
	// Advance head past the midpoint so subsequent pushes wrap.
	popped := q.PopN(minQueueCap - 3)
	q.Recycle(popped)
	for i := 0; i < minQueueCap-3; i++ { // refill: live region now wraps
		q.Push(ringReq(id, 0))
		id++
	}
	// One more push forces grow() with a wrapped region.
	q.Push(ringReq(id, 0))
	id++
	want := uint64(minQueueCap - 3)
	if q.Len() != minQueueCap+1 {
		t.Fatalf("len after grow = %d, want %d", q.Len(), minQueueCap+1)
	}
	for i := 0; i < q.Len(); i++ {
		if got := q.At(i).ID; got != want+uint64(i) {
			t.Fatalf("At(%d) = %d after grow, want %d", i, got, want+uint64(i))
		}
	}
}

// TestPopNClampsAndZeroes pins PopN(n > Len) clamping and that vacated
// slots no longer pin request payloads.
func TestPopNClampsAndZeroes(t *testing.T) {
	var q Queue
	for i := 0; i < 5; i++ {
		q.Push(ringReq(uint64(i), time.Duration(i)))
	}
	if got := q.PopN(100); len(got) != 5 {
		t.Fatalf("PopN(100) returned %d requests, want 5", len(got))
	}
	if q.Len() != 0 {
		t.Fatalf("len after drain = %d, want 0", q.Len())
	}
	if got := q.PopN(3); got != nil {
		t.Fatalf("PopN on empty queue = %v, want nil", got)
	}
	if got := q.PopN(0); got != nil {
		t.Fatalf("PopN(0) = %v, want nil", got)
	}
	for i := range q.buf {
		if q.buf[i].ID != 0 || q.buf[i].Session != 0 {
			t.Fatalf("vacated slot %d still holds %+v", i, q.buf[i])
		}
	}
}

// refQueue is the obviously-correct slice model the ring is checked against.
type refQueue struct{ items []Request }

func (r *refQueue) Push(req Request) { r.items = append(r.items, req) }
func (r *refQueue) Len() int         { return len(r.items) }
func (r *refQueue) At(i int) Request { return r.items[i] }
func (r *refQueue) PopN(n int) []Request {
	if n > len(r.items) {
		n = len(r.items)
	}
	if n <= 0 {
		return nil
	}
	out := append([]Request(nil), r.items[:n]...)
	r.items = r.items[n:]
	return out
}

// refEarlyPick is the pre-optimization EarlyDrop scan, kept verbatim as the
// behavioural reference: one sliding window, estimate(w) recomputed at
// every position, lazy fallback.
func refEarlyPick(q *refQueue, now time.Duration, target int, estimate func(int) time.Duration) (batch, dropped []Request) {
	if target < 1 {
		target = 1
	}
	n := q.Len()
	if n == 0 {
		return nil, nil
	}
	for i := 0; i < n; i++ {
		w := target
		if rest := n - i; rest < w {
			w = rest
		}
		if q.At(i).Deadline >= now+estimate(w) {
			dropped = q.PopN(i)
			return q.PopN(w), dropped
		}
	}
	return refLazyPick(q, now, target, estimate)
}

// refLazyPick is the pre-optimization LazyDrop scan.
func refLazyPick(q *refQueue, now time.Duration, target int, estimate func(int) time.Duration) (batch, dropped []Request) {
	minFinish := now + estimate(1)
	expired := 0
	for expired < q.Len() && q.At(expired).Deadline < minFinish {
		expired++
	}
	if expired > 0 {
		dropped = q.PopN(expired)
	}
	if q.Len() == 0 {
		return nil, dropped
	}
	budget := q.At(0).Deadline - now
	b := 1
	for b < target && b < q.Len() && estimate(b+1) <= budget {
		b++
	}
	return q.PopN(b), dropped
}

// consume applies a pick to q the way the backend does: the dropped head
// requests leave one at a time, then the batch is popped.
func consume(q *Queue, drop, take int) (dropped, batch []Request) {
	for ; drop > 0; drop-- {
		dropped = append(dropped, q.pop())
	}
	return dropped, q.PopN(take)
}

func sameIDs(t *testing.T, kind string, got, want []Request) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d requests, want %d", kind, len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("%s[%d]: got ID %d, want %d", kind, i, got[i].ID, want[i].ID)
		}
	}
}

// TestDifferentialDropPolicies drives the optimized ring queue and drop
// policies against the reference model on randomized workloads: random
// pushes (including non-monotone deadlines, as the frontend retry path can
// produce), random targets, and a counting estimate so the optimized scan
// is also checked for not calling estimate more often than it must. A pick
// must match the reference's drop count, and the batch popped once the
// drops are consumed must match its batch. Since drops build no slice, no
// free-list slice may outgrow the largest batch the queue handed out.
func TestDifferentialDropPolicies(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var ref refQueue
		var early EarlyDrop
		var lazy LazyDrop
		alpha := time.Duration(rng.Intn(5)+1) * time.Millisecond
		beta := time.Duration(rng.Intn(10)) * time.Millisecond
		estimate := func(b int) time.Duration { return alpha*time.Duration(b) + beta }
		now := time.Duration(0)
		id := uint64(0)
		maxBatch := 0
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // push a burst
				for k := rng.Intn(4); k >= 0; k-- {
					// Deadlines scatter around now, occasionally in the
					// past and occasionally out of arrival order.
					dl := now + time.Duration(rng.Intn(120)-20)*time.Millisecond
					r := ringReq(id, dl)
					id++
					q.Push(r)
					ref.Push(r)
				}
			default:
				kind := "early"
				var drop, take int
				var wantB, wantD []Request
				if op < 9 { // early-drop pick
					target := rng.Intn(8)
					drop, take = early.Pick(&q, now, target, estimate)
					wantB, wantD = refEarlyPick(&ref, now, target, estimate)
				} else { // lazy pick
					kind = "lazy"
					target := rng.Intn(8) + 1
					drop, take = lazy.Pick(&q, now, target, estimate)
					wantB, wantD = refLazyPick(&ref, now, target, estimate)
				}
				if drop != len(wantD) {
					t.Fatalf("seed %d step %d: %s drop = %d, want %d", seed, step, kind, drop, len(wantD))
				}
				dropped, batch := consume(&q, drop, take)
				sameIDs(t, kind+" dropped", dropped, wantD)
				sameIDs(t, kind+" batch", batch, wantB)
				maxBatch = max(maxBatch, len(batch))
				q.Recycle(batch)
			}
			if q.Len() != ref.Len() {
				t.Fatalf("seed %d step %d: len %d vs ref %d", seed, step, q.Len(), ref.Len())
			}
			for _, s := range q.free {
				if cap(s) > maxBatch {
					t.Fatalf("seed %d step %d: free-list slice of capacity %d, largest batch %d", seed, step, cap(s), maxBatch)
				}
			}
			now += time.Duration(rng.Intn(20)) * time.Millisecond
		}
	}
}

// TestEstimateCallBudget pins the optimization itself: one EarlyDrop pick
// over a queue with a full window at every position must evaluate the
// latency model once, not once per scanned position.
func TestEstimateCallBudget(t *testing.T) {
	var q Queue
	for i := 0; i < 64; i++ {
		q.Push(ringReq(uint64(i), time.Hour)) // generous deadlines: window anchors at 0
	}
	calls := 0
	estimate := func(b int) time.Duration {
		calls++
		return time.Duration(b) * time.Millisecond
	}
	var early EarlyDrop
	drop, take := early.Pick(&q, 0, 8, estimate)
	if take != 8 || drop != 0 {
		t.Fatalf("pick = %d batch / %d dropped, want 8/0", take, drop)
	}
	if calls != 1 {
		t.Fatalf("estimate called %d times for a hoistable scan, want 1", calls)
	}
}

// TestRecycledBatchesStayZeroed pins the invariant that lets Recycle clear
// only a batch's length: after random Push, PopN and out-of-order Recycle
// cycles through both drop policies, every free-list slice is zero over
// its whole capacity.
func TestRecycledBatchesStayZeroed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var q Queue
	q.PrimeBatches(2, 64)
	var held [][]Request
	id := uint64(0)
	now := time.Duration(0)
	estimate := func(b int) time.Duration { return time.Duration(b) * time.Millisecond }
	policies := []DropPolicy{EarlyDrop{}, LazyDrop{}}
	for step := 0; step < 5000; step++ {
		for n := rng.Intn(6); n > 0; n-- {
			q.Push(ringReq(id, now+time.Duration(rng.Intn(40))*time.Millisecond))
			id++
		}
		switch rng.Intn(3) {
		case 0:
			held = append(held, q.PopN(1+rng.Intn(8)))
		case 1:
			drop, take := policies[rng.Intn(2)].Pick(&q, now, 1+rng.Intn(16), estimate)
			_, batch := consume(&q, drop, take)
			held = append(held, batch)
		}
		for len(held) > 0 && rng.Intn(2) == 0 {
			i := rng.Intn(len(held))
			q.Recycle(held[i])
			held = append(held[:i], held[i+1:]...)
		}
		for i, s := range q.free {
			for j, r := range s[:cap(s)] {
				if r != (Request{}) {
					t.Fatalf("step %d: free batch %d slot %d/%d holds request %d", step, i, j, cap(s), r.ID)
				}
			}
		}
		now += time.Millisecond
	}
}

// TestTrimKeepsOrder pins that handing a grown ring back to its reserved
// size keeps a wrapped live region in FIFO order, and that trim waits
// until the live requests fit.
func TestTrimKeepsOrder(t *testing.T) {
	var q Queue
	q.Reserve(minQueueCap)
	id := uint64(0)
	for i := 0; i < 4*minQueueCap; i++ {
		q.Push(ringReq(id, 0))
		id++
	}
	if q.trim() {
		t.Fatalf("trim with %d live requests reported a %d-slot ring", q.Len(), minQueueCap)
	}
	// Drain to a wrapped region of fewer than minQueueCap requests.
	q.Recycle(q.PopN(4*minQueueCap - 3))
	for i := 0; i < minQueueCap-5; i++ {
		q.Push(ringReq(id, 0))
		id++
	}
	if !q.trim() || len(q.buf) != minQueueCap {
		t.Fatalf("trim left a %d-slot ring, want %d", len(q.buf), minQueueCap)
	}
	want := uint64(4*minQueueCap - 3)
	for i := 0; i < q.Len(); i++ {
		if got := q.At(i).ID; got != want+uint64(i) {
			t.Fatalf("At(%d) = %d after trim, want %d", i, got, want+uint64(i))
		}
	}
}
