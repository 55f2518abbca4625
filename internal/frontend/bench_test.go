package frontend

import (
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/gpusim"
	"nexus/internal/profiler"
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
// every dispatch succeeds). The pools are warmed first, so steady state
// must not allocate.
func BenchmarkFrontendDispatch(b *testing.B) {
	const wave = 1024
	prof := &profiler.Profile{
		ModelID: "m", GPU: profiler.GTX1080Ti,
		Alpha: 50 * time.Microsecond, Beta: 100 * time.Microsecond, MaxBatch: 16,
		MemBase: 1 << 28, MemPerItem: 1 << 20,
	}
	for _, bc := range []struct {
		name     string
		breakers bool
	}{
		{"breakers-off", false},
		{"breakers-on", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			clock := simclock.New()
			backends := make(map[string]*backend.Backend)
			routes := byID{"s": nil}
			for i, id := range []string{"a", "b", "c", "d"} {
				dev := gpusim.New(clock, "gpu-"+id, profiler.GTX1080Ti, gpusim.Exclusive)
				be := backend.New(id, clock, dev, backend.Config{Overlap: true}, nil)
				if err := be.Configure([]backend.Unit{{ID: "u", Profile: prof, TargetBatch: 16}}); err != nil {
					b.Fatal(err)
				}
				backends[id] = be
				routes["s"] = append(routes["s"], Route{BackendID: id, UnitID: "u", Weight: float64(i + 1)})
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
			h := fe.sid("s")
			var id uint64
			dispatch := func(n int) {
				now := clock.Now()
				for i := 0; i < n; i++ {
					fe.Dispatch(workload.Request{ID: id, Session: h, Arrival: now, Deadline: now + time.Second})
					id++
				}
			}
			// Warm every pool: event free list, wheel buckets, send arena,
			// queue rings, batch and run arenas.
			for i := 0; i < 50; i++ {
				dispatch(wave)
				clock.Run()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += wave {
				dispatch(min(wave, b.N-done))
				b.StopTimer()
				clock.Run()
				b.StartTimer()
			}
			b.StopTimer()
			if dropped != 0 || fe.OpenBreakers() != 0 {
				b.Fatalf("%d dropped, %d breakers open; want a clean steady state", dropped, fe.OpenBreakers())
			}
		})
	}
}
