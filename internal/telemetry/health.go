package telemetry

import (
	"fmt"
	"io"
	"time"
)

// SessionAlloc explains one session's placement on one plan node of an
// epoch: what batch and rate share it was given, how occupied the node is,
// and a human-readable reason string.
type SessionAlloc struct {
	Session   string  `json:"session"`
	Node      string  `json:"node"`
	Replicas  int     `json:"replicas"`
	Batch     int     `json:"batch"`
	Rate      float64 `json:"rate"`
	DutyMS    float64 `json:"duty_ms"`
	Occupancy float64 `json:"occupancy"`
	Headroom  float64 `json:"headroom"`
	Reason    string  `json:"reason"`
	Shard     string  `json:"shard,omitempty"`
}

// HealthReport is the global scheduler's per-epoch "explain" output: where
// the plan put every session and why, how demand compared to what the pool
// could grant, and which alerts were firing when the plan was applied.
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
	ShardsReplanned int            `json:"shards_replanned,omitempty"`
	ShardsSkipped   int            `json:"shards_skipped,omitempty"`
	CrossShardMoves int            `json:"cross_shard_moves,omitempty"`
	Allocs          []SessionAlloc `json:"allocs"`
	FiringAlerts    []string       `json:"firing_alerts,omitempty"`
}

// WriteText renders the report for terminals.
func (r *HealthReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "epoch %d @ t=%.1fs: %d/%d GPUs allocated (demand %d), %d session move(s)\n",
		r.Epoch, r.AtMS/1000, r.GPUsAllocated, r.GPUsCapacity, r.GPUsDemanded, r.SessionsMoved); err != nil {
		return err
	}
	for _, a := range r.Allocs {
		if _, err := fmt.Fprintf(w, "  %-24s %s\n", a.Session, a.Reason); err != nil {
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
