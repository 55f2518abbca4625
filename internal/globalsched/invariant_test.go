package globalsched_test

import (
	"fmt"
	"testing"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/faults"
	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/workload"
)

// TestFrontendsHoldPublishedRoutes runs the cluster's chaos and degraded
// fault scripts against a two-frontend deployment and checks, every 10 ms
// of virtual time, that each frontend holds exactly the scheduler's last
// published table at its generation. Epochs, failure repairs and outage
// recoveries all publish between those checks; no
// frontend changes its routes any other way, so the generation check in
// ApplyDelta is never hit.
func TestFrontendsHoldPublishedRoutes(t *testing.T) {
	const faultAt = 9 * time.Second // 2s warmup + 7s
	chaos := cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(), GPUs: 4, Seed: 7,
		Epoch: 5 * time.Second, Heartbeat: 100 * time.Millisecond, LeaseMisses: 3, RetryBudget: 1,
	}
	epochOnly := chaos
	epochOnly.Heartbeat = 0
	degraded := cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(), GPUs: 4, Seed: 7,
		Epoch: 5 * time.Second, Heartbeat: 100 * time.Millisecond, LeaseMisses: 3,
		RouteLeaseTTL: 8 * time.Second, ServeStale: true,
		RetryBudget: 3, RetryBackoff: time.Millisecond,
		BreakerThreshold: 3, BreakerCooloff: time.Second,
	}
	// wide has room for six sessions, so a post-outage repair wave
	// republishes several sessions' routes in one push.
	wide := degraded
	wide.GPUs = 8
	wideEpochOnly := wide
	wideEpochOnly.Heartbeat = 0
	for _, tc := range []struct {
		name   string
		cfg    cluster.Config
		script faults.Script
		// sessions is how many ResNet-50 sessions to deploy, with distinct
		// SLOs so they form no prefix group.
		sessions int
	}{
		{"crash", chaos, faults.Script{{At: faultAt, Kind: faults.Crash, Backend: "be0"}}, 1},
		{"crash-epoch-only", epochOnly, faults.Script{{At: faultAt, Kind: faults.Crash, Backend: "be0"}}, 1},
		{"transient", chaos, faults.Script{{At: faultAt, Kind: faults.Crash, Backend: "be0", Duration: 3 * time.Second}}, 1},
		{"control-partition", degraded, faults.Script{
			{At: faultAt, Kind: faults.Partition, Link: faults.ControlLink, Backend: "be0", Duration: 6 * time.Second}}, 1},
		{"data-partition", degraded, faults.Script{
			{At: faultAt, Kind: faults.Partition, Link: faults.DataLink, Backend: "be0", Duration: 6 * time.Second}}, 1},
		{"surge", degraded, faults.Script{{At: faultAt, Kind: faults.Surge, Factor: 3, Duration: 10 * time.Second}}, 1},
		{"outage-with-crash", degraded, faults.Script{
			{At: faultAt, Kind: faults.SchedulerOutage, Duration: 8 * time.Second},
			{At: faultAt + 2*time.Second, Kind: faults.Crash, Backend: "be0"}}, 1},
		{"outage-with-crash-epoch-only", epochOnly, faults.Script{
			{At: faultAt, Kind: faults.SchedulerOutage, Duration: 8 * time.Second},
			{At: faultAt + 2*time.Second, Kind: faults.Crash, Backend: "be0"}}, 1},
		{"six-sessions-outage-with-crashes", wideEpochOnly, faults.Script{
			{At: faultAt, Kind: faults.SchedulerOutage, Duration: 8 * time.Second},
			{At: faultAt + 2*time.Second, Kind: faults.Crash, Backend: "be0"},
			{At: faultAt + 3*time.Second, Kind: faults.Crash, Backend: "be1"}}, 6},
		// The crash is detected 300 ms after it lands, so its repair
		// publishes shortly after the recovery push.
		{"six-sessions-repair-after-recovery", wide, faults.Script{
			{At: faultAt, Kind: faults.SchedulerOutage, Duration: 8 * time.Second},
			{At: faultAt + 8*time.Second + 500*time.Millisecond, Kind: faults.Crash, Backend: "be0"}}, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Frontends, cfg.Warmup = 2, 2*time.Second
			d, err := cluster.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.sessions {
				rate := 1500.0 / float64(tc.sessions)
				if err := d.AddSession(globalsched.SessionSpec{
					ID: fmt.Sprintf("s%d", i), ModelID: model.ResNet50,
					SLO: time.Duration(100+10*i) * time.Millisecond, ExpectedRate: rate,
				}, workload.Uniform{Rate: rate}); err != nil {
					t.Fatal(err)
				}
			}
			in := faults.New(d.Clock, d, 7)
			if err := in.Schedule(tc.script); err != nil {
				t.Fatal(err)
			}
			const runFor = 25 * time.Second
			checks, gens := 0, map[uint64]bool{}
			check := func() {
				for i, fe := range d.Frontends {
					if diff := d.Sched.OutOfSync(fe); diff != "" {
						t.Fatalf("t=%v frontend %d: %s", d.Clock.Now(), i, diff)
					}
				}
				checks++
				gens[d.Frontend.TableVersion()] = true
			}
			for at := time.Duration(0); at < cfg.Warmup+runFor; at += 10 * time.Millisecond {
				d.Clock.At(at, check)
			}
			if _, err := d.Run(runFor); err != nil {
				t.Fatal(err)
			}
			check()
			for _, e := range in.Log() {
				if !e.Applied {
					t.Fatalf("fault not applied: %+v", e)
				}
			}
			if len(gens) < 3 {
				t.Fatalf("%d checks saw generations %v, want the routes republished", checks, gens)
			}
		})
	}
}
