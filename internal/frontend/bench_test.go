package frontend

import (
	"fmt"
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/gpusim"
	"nexus/internal/profiler"
	"nexus/internal/session"
	"nexus/internal/simclock"
	"nexus/internal/workload"
)

// BenchmarkFrontendDispatch measures the frontend's share of the request
// path in steady state: admission, the smooth-WRR route pick over one
// session's four weighted replicas, and the pooled network-hop send. Each
// wave dispatches a batch of requests at one instant; the clock then
// delivers them and the backends batch and execute them with the timer
// stopped, so the timed region holds Dispatch calls only. It runs with
// breakers off and on. A breaker exists only once its backend has failed,
// so breakers-on first gives each of the four replicas one failure and
// one success: every pick then consults four closed breakers (none opens:
// every dispatch succeeds). shared dispatches round-robin over 4096
// sessions installed with one 24-route list, as members of one
// prefix-batched unit are, so every pick reads their shared pick sequence;
// the table is republished with the timer stopped before any session
// passes the sequence's horizon. The pools are warmed first, so steady
// state must not allocate.
func BenchmarkFrontendDispatch(b *testing.B) {
	const wave = 1024
	prof := &profiler.Profile{
		ModelID: "m", GPU: profiler.GTX1080Ti,
		Alpha: 50 * time.Microsecond, Beta: 100 * time.Microsecond, MaxBatch: 16,
		MemBase: 1 << 28, MemPerItem: 1 << 20,
	}
	for _, bc := range []struct {
		name               string
		breakers           bool
		sessions, replicas int
	}{
		{"breakers-off", false, 1, 4},
		{"breakers-on", true, 1, 4},
		{"shared", false, 4096, 24},
	} {
		b.Run(bc.name, func(b *testing.B) {
			clock := simclock.New()
			backends := make(map[string]*backend.Backend)
			var list []Route
			for i := range bc.replicas {
				id := string(rune('a' + i))
				dev := gpusim.New(clock, "gpu-"+id, profiler.GTX1080Ti, gpusim.Exclusive)
				be := backend.New(id, clock, dev, backend.Config{Overlap: true}, nil)
				if err := be.Configure([]backend.Unit{{ID: "u", Profile: prof, TargetBatch: 16}}); err != nil {
					b.Fatal(err)
				}
				backends[id] = be
				list = append(list, Route{BackendID: id, UnitID: "u", Weight: float64(i + 1)})
			}
			routes := byID{}
			for i := range bc.sessions {
				routes[fmt.Sprintf("s%d", i)] = list
			}
			dropped := 0
			fe := New(clock, backends, nil, 0, func(workload.Request, backend.Outcome) { dropped++ })
			if bc.breakers {
				fe.EnableBreakers(3, time.Second)
				for id := range backends {
					fe.breakerFailure(id)
					fe.breakerSuccess(id)
				}
				if len(fe.breakers) != len(backends) {
					b.Fatalf("%d breakers armed, want %d", len(fe.breakers), len(backends))
				}
			}
			clock.RunUntil(5 * time.Second) // model load
			if err := fe.SetTable(routes); err != nil {
				b.Fatal(err)
			}
			hs := make([]session.Handle, bc.sessions)
			for i := range hs {
				hs[i] = fe.sid(fmt.Sprintf("s%d", i))
			}
			var id, published uint64
			h := hs[0]
			dispatch := func(n int) {
				now := clock.Now()
				for i := 0; i < n; i++ {
					fe.Dispatch(workload.Request{ID: id, Session: h, Arrival: now, Deadline: now + time.Second})
					id++
				}
			}
			if len(hs) > 1 {
				// Round-robin in a loop of its own: picking the session costs
				// the single-session loop above nanoseconds it never had.
				mask := uint64(len(hs) - 1) // session counts are powers of two
				dispatch = func(n int) {
					now := clock.Now()
					for i := 0; i < n; i++ {
						fe.Dispatch(workload.Request{ID: id, Session: hs[id&mask], Arrival: now, Deadline: now + time.Second})
						id++
					}
				}
			}
			// republish installs the table afresh before the next wave could
			// take a session past its shared sequence's horizon.
			republish := func() {
				if bc.sessions > 1 && (id-published+wave)/uint64(bc.sessions) >= pickHorizon-1 {
					if err := fe.SetTable(routes); err != nil {
						b.Fatal(err)
					}
					published = id
				}
			}
			// Warm every pool: event free list, wheel buckets, send arena,
			// queue rings, batch and run arenas.
			for i := 0; i < 50; i++ {
				dispatch(wave)
				clock.Run()
				republish()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += wave {
				dispatch(min(wave, b.N-done))
				b.StopTimer()
				clock.Run()
				republish()
				b.StartTimer()
			}
			b.StopTimer()
			if dropped != 0 || fe.OpenBreakers() != 0 {
				b.Fatalf("%d dropped, %d breakers open; want a clean steady state", dropped, fe.OpenBreakers())
			}
			for _, h := range hs {
				if st := &fe.sessions[h]; (st.seq.picks != nil) != (bc.sessions > 1) {
					b.Fatalf("session %d shared sequence: %v, want %v", h, st.seq.picks != nil, bc.sessions > 1)
				}
			}
		})
	}
}

// BenchmarkSequenceLeave measures a session leaving its shared pick
// sequence for an accumulator of its own, on 4096 sessions installed with
// one 24-route list whose sequence has reached its horizon. breaker: one
// replica's breaker is open, and each op is the pick of a session at a
// different place in the sequence, so it leaves (as every member of a
// prefix-batched group does once one of its replicas trips) and then picks
// around the open breaker. horizon: each op is the pick of a session that
// has reached the horizon. Each op resets the session to its place first:
// its state there is only the sequence and the pick count.
func BenchmarkSequenceLeave(b *testing.B) {
	const sessions, replicas = 4096, 24
	for _, bc := range []struct {
		name    string
		breaker bool
	}{{"breaker", true}, {"horizon", false}} {
		b.Run(bc.name, func(b *testing.B) {
			backends := make(map[string]*backend.Backend, replicas)
			list := make([]Route, replicas)
			for i := range list {
				id := fmt.Sprintf("b%d", i)
				backends[id] = nil
				list[i] = Route{BackendID: id, UnitID: "u", Weight: float64(1 + i%5)}
			}
			fe := New(simclock.New(), backends, nil, 0, nil)
			install := TableDelta{Gen: 1}
			for i := range sessions {
				install.Set = append(install.Set, SessionRoutes{Session: fe.sid(fmt.Sprintf("s%d", i)), Routes: list})
			}
			if err := fe.ApplyDelta(install); err != nil {
				b.Fatal(err)
			}
			st := &fe.sessions[install.Set[0].Session]
			seq := st.seq
			for st.seq == seq && st.at < cap(seq.picks) {
				fe.pick(st)
			}
			if seq.picks == nil || len(seq.picks) != cap(seq.picks) {
				b.Fatalf("sequence not shared or not at its horizon (%d of %d picks)", len(seq.picks), cap(seq.picks))
			}
			horizon := len(seq.picks)
			if bc.breaker {
				fe.EnableBreakers(1, time.Hour)
				fe.breakerFailure("b0")
				if fe.OpenBreakers() != 1 {
					b.Fatal("breaker on b0 did not open")
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.seq, st.at = seq, horizon
				if bc.breaker {
					st.at = i * 2654435761 % horizon // spread over the sequence
				}
				if fe.pick(st) < 0 || st.seq == seq {
					b.Fatal("pick failed or stayed on the shared sequence")
				}
			}
		})
	}
}
