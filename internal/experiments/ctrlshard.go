package experiments

import (
	"fmt"

	"nexus/internal/cluster"
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

// ctrlShardDeploy runs the Figure 13 deployment window under a given
// control-plane configuration, so any goodput difference across variants is
// attributable to the planner.
func ctrlShardDeploy(rc *RunContext, v ctrlShardVariant) (ctrlShardResult, error) {
	d, err := figure13Window(rc, func(cfg *cluster.Config) {
		cfg.PlannerShards, cfg.PlanHysteresis = v.shards, v.hysteresis
	})
	if err != nil {
		return ctrlShardResult{}, err
	}
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
	results, err := runCells("ctrlshard", len(variants), func(i int) (ctrlShardResult, error) {
		res, err := ctrlShardDeploy(rc, variants[i])
		if err != nil {
			return res, fmt.Errorf("%s: %w", variants[i].name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ctrl-shard",
		Title:  "control-plane sharding ablation on the Figure 13 deployment window",
		Header: []string{"planner", "goodput %", "bad %", "GPUs in use", "shards replanned", "shards skipped", "cross-shard moves", "delta pushes", "full pushes", "goodput delta"},
		Notes: []string{
			"sharded planning must hold goodput within 1% of the monolithic planner on the same workload and seed",
			"sharded-4/8 add plan hysteresis (5% band); every row pushes routes as per-session deltas",
		},
	}
	mono := results[0]
	for i, v := range variants {
		res := results[i]
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
