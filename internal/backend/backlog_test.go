package backend

import (
	"testing"
	"time"

	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
)

// TestLoadBacklogTrimmed pins what a model-load backlog leaves behind. A
// unit that queues eight times its reserved ring while its model loads
// ends, once the backlog has drained, with the ring back at its reserved
// size and a free list of batch-sized slices only: drops are consumed in
// place, so no backlog-sized drop slice is ever recycled. The trim is
// armed once per load, so an overloaded steady wave afterwards still runs
// without allocating, and evicting a unit that holds 10k requests
// allocates nothing either.
func TestLoadBacklogTrimmed(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "gpu0", profiler.GTX1080Ti, gpusim.Exclusive)
	served, dropped := 0, 0
	be := New("b0", clock, dev, Config{Overlap: true, Discipline: RoundRobin},
		func(req Request, outcome Outcome, at time.Duration) {
			if outcome.Bad() {
				dropped++
			} else {
				served++
			}
		})
	p := testUnitProfile()
	const target = 16
	if err := be.Configure([]Unit{{ID: "u", Profile: p, TargetBatch: target}}); err != nil {
		t.Fatal(err)
	}
	u := be.byID["u"]
	reserved := len(u.queue.buf)
	memo := p.MemoBatches()
	if reserved < 2*memo {
		t.Fatalf("reserved ring %d below two memo batches (%d)", reserved, 2*memo)
	}

	// The backlog: 8x the reserved ring, spread evenly over the load, with
	// the SLO of hotPathWave. Most of it expires before the
	// model is ready and is dropped; the tail is served.
	const slo = 100 * time.Millisecond
	backlog := 8 * reserved
	load := gpusim.LoadTime(p.MemBase + target*p.MemPerItem)
	for i := 0; i < backlog; i++ {
		at := load * time.Duration(i) / time.Duration(backlog)
		id := uint64(i)
		clock.At(at, func() {
			if err := be.Enqueue("u", Request{ID: id, Session: 1, Arrival: at, Deadline: at + slo}); err != nil {
				t.Fatal(err)
			}
		})
	}
	clock.RunUntil(load - time.Nanosecond)
	if u.ready || len(u.queue.buf) < backlog {
		t.Fatalf("backlog before the load ends: ready %v, %d-slot ring, want a %d-request backlog",
			u.ready, len(u.queue.buf), backlog)
	}
	clock.Run()
	if served+dropped != backlog || served == 0 || dropped == 0 {
		t.Fatalf("backlog of %d: %d served, %d dropped", backlog, served, dropped)
	}
	if len(u.queue.buf) != reserved {
		t.Fatalf("ring after the backlog drained: %d slots, want the reserved %d", len(u.queue.buf), reserved)
	}
	checkFreeBatchSized(t, "after the backlog", &u.queue, memo)

	// An overloaded steady wave: BenchmarkDispatchHotPath's.
	wave := hotPathWave(t, clock, be, 1)
	wave()
	wave()
	before := served
	if allocs := testing.AllocsPerRun(5, wave); allocs != 0 {
		t.Fatalf("steady overloaded wave after the trim: %v allocs/run, want 0", allocs)
	}
	if served == before {
		t.Fatal("steady waves served nothing")
	}
	checkFreeBatchSized(t, "after the steady waves", &u.queue, memo)

	// Evicting a unit that holds 10k requests consumes them in place.
	fill := func() {
		for i := 0; i < 10_000; i++ {
			u.queue.Push(Request{ID: uint64(i), Session: 1, Deadline: clock.Now()})
		}
	}
	fill()
	if allocs := testing.AllocsPerRun(5, func() { be.evict(u, DropReconfig); fill() }); allocs != 0 {
		t.Fatalf("evict of 10k queued requests: %v allocs/run, want 0", allocs)
	}
	if u.queue.Len() != 10_000 {
		t.Fatalf("queue after evict and refill: %d requests, want 10000", u.queue.Len())
	}
}

// checkFreeBatchSized fails when a free-list slice is larger than the
// largest batch a unit of memo size can execute.
func checkFreeBatchSized(t *testing.T, when string, q *Queue, memo int) {
	t.Helper()
	for i, s := range q.free {
		if cap(s) > memo {
			t.Fatalf("%s: free-list slice %d has capacity %d, above the %d-request batch bound", when, i, cap(s), memo)
		}
	}
}

// TestFullFreeListKeepsLargestBatches checks that a full batch free list
// trades its smallest slice for a larger recycled one. Eight batches of one
// in flight at once fill the list with slices too small for a full batch;
// three full batches in flight then allocate once, and not on every cycle.
func TestFullFreeListKeepsLargestBatches(t *testing.T) {
	const memo = 8
	var q Queue
	q.Reserve(4 * memo)
	q.PrimeBatches(2, memo)
	fill := func() {
		for q.Len() < 3*memo {
			q.Push(Request{ID: 1, Session: 1})
		}
	}
	fill()
	var held [][]Request
	for range maxFreeBatches {
		held = append(held, q.PopN(1))
	}
	for _, b := range held {
		q.Recycle(b)
	}
	cycle := func() {
		fill()
		a, b, c := q.PopN(memo), q.PopN(memo), q.PopN(memo)
		q.Recycle(a)
		q.Recycle(b)
		q.Recycle(c)
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("three full batches in flight: %v allocs/cycle, want 0", allocs)
	}
	checkFreeBatchSized(t, "after the cycles", &q, memo)
}

// TestDeferredBatchesRecycled checks that a batch served from a unit's
// deferred queue goes back to that queue's free list, not the on-time
// queue's, so an overloaded wave that defers its drops and serves them
// once the unit idles runs without allocating.
func TestDeferredBatchesRecycled(t *testing.T) {
	clock := simclock.New()
	dev := gpusim.New(clock, "gpu0", profiler.GTX1080Ti, gpusim.Exclusive)
	deferredServed := 0
	be := New("b0", clock, dev, Config{Overlap: true, Discipline: RoundRobin, DeferDropped: true},
		func(req Request, outcome Outcome, at time.Duration) {
			if outcome == OK && at > req.Deadline {
				deferredServed++
			}
		})
	if err := be.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 16}}); err != nil {
		t.Fatal(err)
	}
	clock.Run() // the model load
	wave := hotPathWave(t, clock, be, 1)
	wave()
	wave()
	before := deferredServed
	if allocs := testing.AllocsPerRun(5, wave); allocs != 0 {
		t.Fatalf("overloaded wave with deferred drops: %v allocs/run, want 0", allocs)
	}
	if deferredServed == before {
		t.Fatal("no deferred request was served; the test is vacuous")
	}
}
