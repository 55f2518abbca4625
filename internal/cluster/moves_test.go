package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"

	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/scheduler"
	"nexus/internal/telemetry"
	"nexus/internal/workload"
)

// TestMoveCountsAgree: every surface that reports plan moves reads the one
// DiffPlans count of the applied plans. Under a drifting workload, each
// epoch's plan_diff header, health report and OnEpoch stats equal DiffPlans
// of consecutive Plan() snapshots, and the final sched_sessions_moved_total
// is their sum. Spatial placement re-packs every epoch, so it must show
// moves too.
func TestMoveCountsAgree(t *testing.T) {
	cases := []struct {
		name      string
		placement scheduler.Placement
		shards    int
	}{
		{"temporal-2-shards", scheduler.PlaceTemporal, 2},
		{"spatial", scheduler.PlaceSpatial, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var d *Deployment
			var plans []*scheduler.Plan
			var reported []scheduler.MoveStats
			d, err := New(Config{
				System: Nexus, Features: AllFeatures(), GPUs: 16, Seed: 3,
				Epoch: 4 * time.Second, Audit: true,
				Telemetry:     &telemetry.Config{Interval: time.Second},
				PlannerShards: c.shards, Placement: c.placement, SliceGranularity: 4,
				OnEpoch: func(_ int, stats scheduler.MoveStats, _ int) {
					plans = append(plans, d.Sched.Plan())
					reported = append(reported, stats)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			models := []string{model.GoogLeNetCar, model.ResNet50, model.Darknet53}
			for i := 0; i < 9; i++ {
				// Rates swing ±50% on a 20 s period, out of phase per
				// session, so every epoch plans against new rates.
				base, phase := 30+15*float64(i%3), float64(i)
				if err := d.AddSession(globalsched.SessionSpec{
					ID: fmt.Sprintf("s%d", i), ModelID: models[i%len(models)],
					SLO: time.Duration(60+40*(i%3)) * time.Millisecond, ExpectedRate: base,
				}, workload.Modulated{RateAt: func(at time.Duration) float64 {
					return base * (1 + 0.5*math.Sin(2*math.Pi*at.Seconds()/20+phase))
				}}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := d.Run(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			diffs, health := d.Audit().PlanDiffs(), d.Telemetry().Health()
			if len(plans) < 3 || len(diffs) != len(plans) || len(health) != len(plans) {
				t.Fatalf("%d epochs, %d plan diffs, %d health reports", len(plans), len(diffs), len(health))
			}
			var prev *scheduler.Plan
			sum := 0
			for i, plan := range plans {
				want := scheduler.DiffPlans(prev, plan)
				if diffs[i].SessionsMoved != want.SessionsMoved || health[i].SessionsMoved != want.SessionsMoved {
					t.Fatalf("epoch %d: plan_diff moved=%d, health moved=%d, DiffPlans moved=%d",
						i+1, diffs[i].SessionsMoved, health[i].SessionsMoved, want.SessionsMoved)
				}
				if reported[i] != want {
					t.Fatalf("epoch %d: OnEpoch stats %+v, DiffPlans %+v", i+1, reported[i], want)
				}
				sum += want.SessionsMoved
				prev = plan
			}
			if c.placement == scheduler.PlaceSpatial && sum == 0 {
				t.Fatal("spatial re-packs under drift reported no moves")
			}
			snaps := d.Telemetry().Snapshots()
			if total, _ := snaps[len(snaps)-1].Counter("sched_sessions_moved_total"); int(total) != sum {
				t.Fatalf("sched_sessions_moved_total = %v, epochs moved %d", total, sum)
			}
		})
	}
}
