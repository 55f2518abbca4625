package backend

import (
	"math/rand"
	"testing"
	"time"

	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/session"
	"nexus/internal/simclock"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// BenchmarkDispatchHotPath measures the node data plane in steady state —
// enqueue, early-drop admission, ring-buffer batch assembly, simulated
// execution, completion — replaying one second of Uniform rate-2000
// overload per iteration. Setup (clock, device, model load) and the
// arrival schedule are hoisted out of the timed region and the pools are
// warmed first, so the numbers isolate the per-request path the ring
// queue, batch/run arenas, and memoized latency tables optimize; at
// steady state it must not allocate at all.
func BenchmarkDispatchHotPath(b *testing.B) {
	clock := simclock.New()
	dev := gpusim.New(clock, "gpu0", profiler.GTX1080Ti, gpusim.Exclusive)
	served := 0
	be := New("b0", clock, dev, Config{Overlap: true, Discipline: RoundRobin},
		func(req Request, outcome Outcome, at time.Duration) { served++ })
	if err := be.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 16}}); err != nil {
		b.Fatal(err)
	}
	clock.RunUntil(2 * time.Second) // model load
	wave := hotPathWave(b, clock, be, 1)
	// Warm every pool (event free list, wheel buckets, batch and run
	// arenas) so the timed region measures steady state.
	wave()
	wave()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
	b.StopTimer()
	if served == 0 {
		b.Fatal("no requests served")
	}
}

// BenchmarkDispatchHotPathTraced replays the same steady-state wave with
// the flight recorder's span sources attached the way a deployment attaches
// them — per-request Execute records from the OnBatch hook, which resolves
// the backend and unit handles once per batch, and Complete/Drop records in
// the completion sink, from the request's session handle and cause handles
// interned at set-up — so the delta over BenchmarkDispatchHotPath is the
// full cost of always-on span capture. The CI gate pins it to its recorded
// baseline and to zero allocations: capture cost regressions surface here,
// not in production tail latency.
func BenchmarkDispatchHotPathTraced(b *testing.B) {
	clock := simclock.New()
	dev := gpusim.New(clock, "gpu0", profiler.GTX1080Ti, gpusim.Exclusive)
	names := session.NewTable()
	tr := trace.New(1<<14, names)
	sess := names.Intern("s")
	var causes []trace.Name
	for o := OK; o <= DropAdmission; o++ {
		causes = append(causes, tr.Name(o.String()))
	}
	served := 0
	onBatch := func(backendID, unitID string, batch []Request, inc uint32, gpuTime time.Duration) {
		s := trace.Span{At: clock.Now(), Kind: trace.ExecuteName,
			Backend: tr.Name(backendID), Unit: tr.Name(unitID),
			Batch: int32(len(batch)), Dur: gpuTime, Inc: inc}
		for i := range batch {
			s.Req, s.Session = batch[i].ID, batch[i].Session
			tr.Put(s)
		}
	}
	be0 := tr.Name("b0")
	done := func(req Request, outcome Outcome, at time.Duration) {
		served++
		s := trace.Span{At: at, Kind: trace.CompleteName, Req: req.ID,
			Session: req.Session, Backend: be0, Dur: at - req.Arrival}
		if outcome != OK {
			s.Kind, s.Cause = trace.DropName, causes[outcome]
		}
		tr.Put(s)
	}
	be := New("b0", clock, dev,
		Config{Overlap: true, Discipline: RoundRobin, OnBatch: onBatch}, done)
	if err := be.Configure([]Unit{{ID: "u", Profile: testUnitProfile(), TargetBatch: 16}}); err != nil {
		b.Fatal(err)
	}
	clock.RunUntil(2 * time.Second) // model load
	wave := hotPathWave(b, clock, be, sess)
	wave()
	wave()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wave()
	}
	b.StopTimer()
	if served == 0 {
		b.Fatal("no requests served")
	}
	if tr.Total() == 0 {
		b.Fatal("no events traced")
	}
}

// hotPathWave precomputes one second of Uniform rate-2000 arrivals (seed
// 7) and returns a replay of them into be's unit "u", with a 100 ms SLO,
// that runs the clock dry. A self-rescheduling pump walks the offset
// schedule, so a replay keeps exactly one generator event live and reuses
// its closure: once the pools are warm, a replay allocates nothing.
func hotPathWave(tb testing.TB, clock *simclock.Clock, be *Backend, sess session.Handle) func() {
	rng := rand.New(rand.NewSource(7))
	proc := workload.Uniform{Rate: 2000}
	var offsets []time.Duration
	for t := proc.Interarrival(0, rng); t < time.Second; t += proc.Interarrival(t, rng) {
		offsets = append(offsets, t)
	}
	const slo = 100 * time.Millisecond
	var (
		start time.Duration
		idx   int
		id    uint64
		pump  func()
	)
	pump = func() {
		now := clock.Now()
		if err := be.Enqueue("u", Request{ID: id, Session: sess, Arrival: now, Deadline: now + slo}); err != nil {
			tb.Fatal(err)
		}
		id++
		idx++
		if idx < len(offsets) {
			clock.At(start+offsets[idx], pump)
		}
	}
	return func() {
		idx = 0
		start = clock.Now()
		clock.At(start+offsets[0], pump)
		clock.Run()
	}
}

// BenchmarkQueueSmallBatch measures one PopN/Recycle cycle of a batch of
// one on a unit primed at memo size 256, the shape of most batches on a
// deployment of many light sessions: the cost must follow the batch, not
// the memo-sized capacity of the recycled slice.
func BenchmarkQueueSmallBatch(b *testing.B) {
	const memo = 256
	var q Queue
	q.Reserve(2 * memo)
	q.PrimeBatches(2, memo)
	req := Request{ID: 1, Session: 1, Deadline: time.Second}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(req)
		q.Recycle(q.PopN(1))
	}
}
