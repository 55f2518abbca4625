package telemetry

import (
	"fmt"
	"io"
	"sort"
	"time"

	"nexus/internal/trace"
)

// HealthReport is the global scheduler's per-epoch "explain" output: where
// the plan put every session (the plan's placement records, as the audit
// log carries them), how demand compared to what the pool could grant, and
// which alerts were firing when the plan was applied.
type HealthReport struct {
	Epoch         int           `json:"epoch"`
	At            time.Duration `json:"-"`
	AtMS          float64       `json:"at_ms"`
	GPUsDemanded  int           `json:"gpus_demanded"`
	GPUsAllocated int           `json:"gpus_allocated"`
	GPUsCapacity  int           `json:"gpus_capacity"`
	SessionsMoved int           `json:"sessions_moved"`
	// Sharded-planner counters; zero and omitted unless the plan is
	// partitioned (>= 2 shards), so one-shard goldens are unchanged.
	ShardsReplanned int                     `json:"shards_replanned,omitempty"`
	ShardsSkipped   int                     `json:"shards_skipped,omitempty"`
	CrossShardMoves int                     `json:"cross_shard_moves,omitempty"`
	Placements      []trace.PlacementRecord `json:"placements"`
	FiringAlerts    []string                `json:"firing_alerts,omitempty"`
}

// WriteText renders the report for terminals: one reason line per
// (session, node) allocation, sorted by session then node.
func (r *HealthReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "epoch %d @ t=%.1fs: %d/%d GPUs allocated (demand %d), %d session move(s)\n",
		r.Epoch, r.AtMS/1000, r.GPUsAllocated, r.GPUsCapacity, r.GPUsDemanded, r.SessionsMoved); err != nil {
		return err
	}
	type alloc struct {
		node *trace.PlacementRecord
		unit *trace.PlacedUnit
	}
	var allocs []alloc
	for i := range r.Placements {
		for j := range r.Placements[i].Units {
			allocs = append(allocs, alloc{&r.Placements[i], &r.Placements[i].Units[j]})
		}
	}
	sort.Slice(allocs, func(i, j int) bool {
		if a, b := allocs[i].unit.Session, allocs[j].unit.Session; a != b {
			return a < b
		}
		return allocs[i].node.Node < allocs[j].node.Node
	})
	for _, a := range allocs {
		if _, err := fmt.Fprintf(w, "  %-24s %s\n", a.unit.Session, reason(a.node, a.unit)); err != nil {
			return err
		}
	}
	if len(r.FiringAlerts) > 0 {
		if _, err := fmt.Fprintf(w, "  firing at plan time: %v\n", r.FiringAlerts); err != nil {
			return err
		}
	}
	return nil
}

// reason explains one allocation: its rate share and batch, and its node's
// duty cycle, occupancy, headroom and replicas. A node without a duty cycle
// (a batch-oblivious plan's) has no occupancy to report.
func reason(n *trace.PlacementRecord, u *trace.PlacedUnit) string {
	var out string
	if n.Spatial || n.DutyMS > 0 {
		out = fmt.Sprintf("%.1f r/s at batch %d on %s (duty %.1fms, occupancy %.0f%%, headroom %.0f%%, %d replica(s))",
			u.Rate, u.Batch, n.Node, n.DutyMS, 100*n.Occupancy, 100*(1-n.Occupancy), len(n.Backends))
	} else {
		out = fmt.Sprintf("%.1f r/s at batch %d on %s (%d replica(s))", u.Rate, u.Batch, n.Node, len(n.Backends))
	}
	if u.Slice > 0 {
		out += fmt.Sprintf(", pinned to a %.0f%% compute slice", 100*u.Slice)
	}
	if len(u.Members) > 0 {
		out += fmt.Sprintf(", prefix group of %d", len(u.Members))
	}
	return out
}
