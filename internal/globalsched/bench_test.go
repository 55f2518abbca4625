package globalsched

import (
	"fmt"
	"testing"
	"time"

	"nexus/internal/model"
	"nexus/internal/scheduler"
)

// BenchmarkPublishRoutes measures one route publish at the fleet-churn
// shape: 8,000 sessions in two prefix groups, with publishes alternating
// between two plans whose allocations differ only in rate. Every route
// weight tracks its unit's planned rate, so each publish is a delta that
// carries all 8,000 sessions: building the per-unit routes, walking them
// against the held table, and installing the delta on the frontend.
func BenchmarkPublishRoutes(b *testing.B) {
	const sessions = 8000
	e := newEnv(b, nexusConfig(), 8)
	e.sched.GrowSessions(sessions)
	for i := range sessions {
		if _, err := e.sched.AddSession(SessionSpec{
			ID: fmt.Sprintf("s%04d", i), ModelID: fmt.Sprintf("%s-v%d", model.ResNet50, i%4),
			SLO: time.Duration(100+20*(i%2)) * time.Millisecond, ExpectedRate: 0.1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.sched.RunEpoch(); err != nil {
		b.Fatal(err)
	}
	if len(e.sched.groups) != 2 {
		b.Fatalf("%d prefix groups, want 2", len(e.sched.groups))
	}
	held := e.sched.Plan()
	drifted := &scheduler.Plan{GPUs: make([]scheduler.GPUPlan, len(held.GPUs))}
	for i, g := range held.GPUs {
		g.Allocs = append([]scheduler.Alloc(nil), g.Allocs...)
		for k := range g.Allocs {
			g.Allocs[k].Rate *= 1.01
		}
		drifted.GPUs[i] = g
	}
	plans := [2]*scheduler.Plan{drifted, held}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if err := e.sched.publishRoutes(plans[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, _, carried := e.sched.RoutePushStats(); carried != uint64(b.N)*sessions {
		b.Fatalf("deltas carried %d session entries over %d publishes, want %d each", carried, b.N, sessions)
	}
}

// BenchmarkRunEpoch measures one control-plane epoch at the fleet-churn
// shape: 8,000 sessions in two prefix families at two SLOs, two planner
// shards with a 5% hysteresis band, and rates that swing ±25% from epoch
// to epoch, so every epoch re-plans and its publish carries all 8,000
// sessions. Membership never changes, so the families are not re-derived.
func BenchmarkRunEpoch(b *testing.B) {
	e := runEpochEnv(b, 8000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		driftRates(e.sched, i)
		if err := e.sched.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}
