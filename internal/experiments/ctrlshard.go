package experiments

import (
	"fmt"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/runner"
	"nexus/internal/workload"
)

func init() {
	register(Experiment{
		ID:          "ctrl-shard",
		Description: "Sharded control plane vs monolithic: goodput parity on the Figure 13 workload",
		Run:         ctrlShard,
	})
}

// ctrlShardVariant is one control-plane configuration of the ablation.
type ctrlShardVariant struct {
	name       string
	shards     int
	hysteresis float64
}

// ctrlShardResult carries one variant's deployment outcome plus the
// control-plane counters the sharded path exposes.
type ctrlShardResult struct {
	badPct    float64
	goodput   float64
	gpus      float64
	replanned int
	skipped   int
	moves     int
	deltas    int
	fulls     int
}

// ctrlShardDeploy runs the Figure 13 deployment window (seven applications
// with Poisson arrivals and a mid-window traffic surge) under a given
// control-plane configuration. The workload, seed, and horizon are identical
// across variants, so any goodput difference is attributable to the planner.
func ctrlShardDeploy(rc *RunContext, v ctrlShardVariant) (ctrlShardResult, error) {
	gpus, scale := 100, 0.5
	window := 1000 * time.Second
	gpuType := profiler.K80
	if rc.Short {
		gpus, scale = 24, 0.2
		window = 200 * time.Second
		gpuType = profiler.GTX1080Ti
	}
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: gpus, GPU: gpuType, Seed: 13,
		Epoch: 30 * time.Second, Warmup: 10 * time.Second,
		PlannerShards: v.shards, PlanHysteresis: v.hysteresis,
	})
	if err != nil {
		return ctrlShardResult{}, err
	}
	for _, b := range apps.All(scale) {
		if _, err := apps.Deploy(d, func(mdb *model.DB) (*apps.Spec, error) {
			s, err := b(mdb)
			if err != nil {
				return nil, err
			}
			return apps.WithPoisson(s), nil
		}); err != nil {
			return ctrlShardResult{}, err
		}
	}
	surgeSpec, err := apps.Traffic(10, 16*scale, false)(d.ModelDB())
	if err != nil {
		return ctrlShardResult{}, err
	}
	surgeQuery := surgeSpec.Queries[0].Spec
	surgeQuery.Query.Name = "traffic-surge"
	surgeSched := workload.Schedule{
		{Until: window / 3, Rate: 0},
		{Until: 2 * window / 3, Rate: surgeQuery.ExpectedRate},
		{Until: window * 10, Rate: 0},
	}
	surgeQuery.ExpectedRate = 0.1
	if err := d.AddQuery(surgeQuery, workload.Modulated{RateAt: surgeSched.RateAt}); err != nil {
		return ctrlShardResult{}, err
	}
	if _, err := d.Run(window); err != nil {
		return ctrlShardResult{}, err
	}
	finishDeployment(rc, d)
	res := ctrlShardResult{
		badPct:  100 * d.BadRate(),
		goodput: 100 * (1 - d.BadRate()),
		gpus:    d.AvgGPUsUsed(),
	}
	res.replanned, res.skipped, res.moves = d.Sched.ShardTotals()
	deltas, fulls, _ := d.Sched.RoutePushStats()
	res.deltas, res.fulls = int(deltas), int(fulls)
	return res, nil
}

// ctrlShard compares the default one-shard epoch planner (the "monolithic"
// row) against partitioned planning on the Figure 13 deployment window.
// The headline acceptance bar is the goodput delta: partitioned planning
// with hysteresis must stay within 1% of the one-shard baseline while
// cutting plan latency (the latter is measured by BenchmarkPack10kGPU, not
// here).
func ctrlShard(rc *RunContext) (*Table, error) {
	variants := []ctrlShardVariant{
		{name: "monolithic", shards: 0},
		{name: "sharded-4", shards: 4, hysteresis: 0.05},
		{name: "sharded-8", shards: 8, hysteresis: 0.05},
	}
	type cell struct {
		res ctrlShardResult
		err error
	}
	cells := runner.MapNamed("ctrlshard", len(variants), func(i int) cell {
		res, err := ctrlShardDeploy(rc, variants[i])
		return cell{res, err}
	})
	t := &Table{
		ID:     "ctrl-shard",
		Title:  "control-plane sharding ablation on the Figure 13 deployment window",
		Header: []string{"planner", "goodput %", "bad %", "GPUs in use", "shards replanned", "shards skipped", "cross-shard moves", "delta pushes", "full pushes", "goodput delta"},
		Notes: []string{
			"sharded planning must hold goodput within 1% of the monolithic planner on the same workload and seed",
			"sharded-4/8 add plan hysteresis (5% band); every row pushes routes as per-session deltas",
		},
	}
	var mono ctrlShardResult
	for i, v := range variants {
		if cells[i].err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, cells[i].err)
		}
		res := cells[i].res
		if i == 0 {
			mono = res
		}
		dash := func(n int, on bool) string {
			if !on {
				return "-"
			}
			return fmt.Sprintf("%d", n)
		}
		t.AddRow(v.name,
			fmt.Sprintf("%.2f", res.goodput),
			fmt.Sprintf("%.2f", res.badPct),
			fmt.Sprintf("%.1f", res.gpus),
			dash(res.replanned, v.shards >= 2),
			dash(res.skipped, v.shards >= 2),
			dash(res.moves, v.shards >= 2),
			fmt.Sprintf("%d", res.deltas),
			fmt.Sprintf("%d", res.fulls),
			fmt.Sprintf("%+.2f%%", res.goodput-mono.goodput),
		)
	}
	return t, nil
}
