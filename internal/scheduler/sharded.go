package scheduler

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"
	"time"

	"nexus/internal/profiler"
	"nexus/internal/runner"
)

// This file implements the sharded, incremental planner, the control
// plane's only squishy-packing entry point: sessions are partitioned across
// N shards (N = 1 for an unpartitioned plan) that each run squishy packing
// concurrently over their own slice of the cluster, shards whose workload
// has not moved beyond a hysteresis band skip re-packing entirely and carry
// their plan forward, and a deterministic cross-shard rebalance step drains
// underutilized shared nodes into other shards' spare duty cycles. The
// partitioned-scheduler structure follows Arktos's concurrent per-partition
// schedulers; the hysteresis band reuses the split-hysteresis idiom the
// control plane already applies to query latency splits.

// ShardOf returns the deterministic home shard for a session: FNV-1a over
// the session ID, modulo the shard count. Sessions keep this home until a
// cross-shard rebalance migrates them.
func ShardOf(sessionID string, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(sessionID))
	return int(h.Sum32() % uint32(shards))
}

// shardNodeID namespaces per-shard node IDs in partitioned plans: shard 3's
// local node "n7" becomes "s3/n7". Single-shard planners keep bare local
// IDs, so a 1-shard plan is byte-identical to Pack's. Every other piece of
// shard attribution follows the same rule: it appears only with >= 2 shards.
func shardNodeID(shard, shards int, local string) string {
	if shards <= 1 {
		return local
	}
	return "s" + strconv.Itoa(shard) + "/" + local
}

// NodeShard parses the shard index out of a merged-plan node ID ("s3/n7"
// -> 3, true). Unpartitioned node IDs ("n7") report false.
func NodeShard(id string) (int, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	slash := strings.IndexByte(id, '/')
	if slash < 2 {
		return 0, false
	}
	k, err := strconv.Atoi(id[1:slash])
	if err != nil || k < 0 {
		return 0, false
	}
	return k, true
}

// ShardOpts selects per-epoch sharded planning behaviour.
type ShardOpts struct {
	// Hysteresis is the relative rate band within which a shard skips
	// re-packing and carries its plan forward (0 disables skipping, every
	// shard re-plans every epoch). A shard re-plans when any member
	// session's rate moved more than Hysteresis*old (and more than an
	// absolute floor), its SLO or model changed, or membership changed.
	Hysteresis float64
	// Force marks every shard dirty regardless of hysteresis. The control
	// plane sets it on admission-control re-iterations, where globally
	// scaled rates must reach every shard.
	Force bool
}

// rateHysteresisFloor is the absolute rate change (r/s) below which a
// session never re-triggers packing, mirroring ratesChangedMaterially's
// guard in the control plane: sub-r/s wobbles on tiny sessions do not
// justify disturbing a shard.
const rateHysteresisFloor = 0.5

// maxShardDonors bounds how many low-occupancy nodes the cross-shard
// rebalance attempts to drain per epoch, keeping the sequential merge step
// cheap relative to the parallel packing it follows.
const maxShardDonors = 64

// ShardStats summarizes one sharded planning pass.
type ShardStats struct {
	MoveStats
	Shards    int // shard count of the planner
	Replanned int // shards that ran packing this epoch
	Skipped   int // shards that carried their plan forward (hysteresis)
	// CrossShardMoves counts session placements migrated to a different
	// shard by the rebalance step.
	CrossShardMoves int
}

// sessionSig is the per-session signature hysteresis compares against: the
// values the shard's current plan was derived for.
type sessionSig struct {
	rate  float64
	slo   time.Duration
	model string
}

// ShardResult is one sharded planning pass, not yet committed: the merged
// plan plus the planner state that Commit installs once the control plane
// accepts the plan (admission control may instead re-plan at scaled rates).
type ShardResult struct {
	Plan  *Plan
	Stats ShardStats

	local []*Plan // per-shard plans with local node IDs
	sigs  []map[string]sessionSig
	home  map[string]int
}

// ShardPlanner partitions sessions across shards and plans them
// concurrently, carrying per-shard plans across epochs. The zero number of
// shards is not valid; use NewShardPlanner.
type ShardPlanner struct {
	shards int
	prev   []*Plan // per-shard plans, local node IDs
	sigs   []map[string]sessionSig
	home   map[string]int // session -> shard (hash default, rebalance moves)
}

// NewShardPlanner creates a planner with the given shard count (minimum 1).
func NewShardPlanner(shards int) *ShardPlanner {
	if shards < 1 {
		shards = 1
	}
	return &ShardPlanner{
		shards: shards,
		prev:   make([]*Plan, shards),
		sigs:   make([]map[string]sessionSig, shards),
		home:   make(map[string]int),
	}
}

// Shards returns the shard count.
func (sp *ShardPlanner) Shards() int { return sp.shards }

// Plan runs one sharded planning pass. It does not mutate the planner:
// the control plane may call it several times per epoch while admission
// control scales rates, then Commit exactly the accepted result.
func (sp *ShardPlanner) Plan(sessions []Session, profiles map[string]*profiler.Profile,
	cfg Config, opts ShardOpts) (*ShardResult, error) {
	n := sp.shards
	members := make([][]Session, n)
	home := make(map[string]int, len(sessions))
	for _, s := range sortSessions(sessions) {
		k, ok := sp.home[s.ID]
		if !ok || k < 0 || k >= n {
			k = ShardOf(s.ID, n)
		}
		home[s.ID] = k
		members[k] = append(members[k], s)
	}

	res := &ShardResult{
		local: make([]*Plan, n),
		sigs:  make([]map[string]sessionSig, n),
		home:  home,
		Stats: ShardStats{Shards: n},
	}
	dirty := make([]bool, n)
	for k := 0; k < n; k++ {
		dirty[k] = opts.Force || opts.Hysteresis <= 0 || sp.prev[k] == nil ||
			shardDirty(members[k], sp.sigs[k], opts.Hysteresis)
	}

	type shardOut struct {
		plan  *Plan
		stats MoveStats
		err   error
	}
	outs := runner.Map(n, func(k int) shardOut {
		if !dirty[k] {
			return shardOut{plan: sp.prev[k]}
		}
		var o shardOut
		o.plan, o.stats, o.err = replan(sp.prev[k], members[k], profiles, cfg)
		return o
	})
	for k, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("scheduler: shard %d: %w", k, o.err)
		}
		res.local[k] = o.plan
		if dirty[k] {
			res.Stats.Replanned++
			res.Stats.NodesKept += o.stats.NodesKept
			res.Stats.NodesAdded += o.stats.NodesAdded
			res.Stats.NodesRemoved += o.stats.NodesRemoved
			res.Stats.SessionsMoved += o.stats.SessionsMoved
			res.sigs[k] = signatures(members[k])
		} else {
			res.Stats.Skipped++
			res.Stats.NodesKept += len(o.plan.GPUs)
			res.sigs[k] = sp.sigs[k]
		}
	}
	if n >= 2 {
		sp.rebalance(res, dirty, profiles, cfg)
	}

	merged := &Plan{}
	for k := 0; k < n; k++ {
		for _, g := range res.local[k].GPUs {
			g.ID = shardNodeID(k, n, g.ID)
			merged.GPUs = append(merged.GPUs, g)
		}
	}
	res.Plan = merged
	return res, nil
}

// Commit installs an accepted planning pass as the state the next epoch
// plans incrementally against.
func (sp *ShardPlanner) Commit(res *ShardResult) {
	sp.prev = res.local
	sp.sigs = res.sigs
	sp.home = res.home
}

// signatures captures the per-session values a fresh shard plan was
// derived for.
func signatures(members []Session) map[string]sessionSig {
	sigs := make(map[string]sessionSig, len(members))
	for _, m := range members {
		sigs[m.ID] = sessionSig{rate: m.Rate, slo: m.SLO, model: m.ModelID}
	}
	return sigs
}

// shardDirty reports whether a shard's workload moved beyond the
// hysteresis band since its plan was last derived.
func shardDirty(members []Session, sigs map[string]sessionSig, band float64) bool {
	if len(members) != len(sigs) {
		return true
	}
	for _, m := range members {
		old, ok := sigs[m.ID]
		if !ok || old.slo != m.SLO || old.model != m.ModelID {
			return true
		}
		diff := m.Rate - old.rate
		if diff < 0 {
			diff = -diff
		}
		if diff > band*old.rate && diff > rateHysteresisFloor {
			return true
		}
	}
	return false
}

// shardNode is one shared node of a freshly replanned shard, a candidate
// donor or recipient for the cross-shard rebalance.
type shardNode struct {
	shard   int
	pos     int // index in the shard plan's GPUs slice
	res     *resNode
	removed bool
}

// rebalance is the lightweight cross-shard step: the lowest-occupancy
// shared nodes of freshly replanned shards are drained, best-fit, into the
// remaining shared nodes across all replanned shards; a session that lands
// on another shard migrates its home there. Only sessions whose shard holds
// no dedicated node for them are eligible — migrating a session with
// saturated GPUs in its home shard would drag whole-GPU allocations across
// shards next epoch for no gain. Skipped (clean) shards are never touched:
// their plans carry forward verbatim. Everything is ordered, so the result
// is deterministic.
func (sp *ShardPlanner) rebalance(res *ShardResult, dirty []bool,
	profiles map[string]*profiler.Profile, cfg Config) {
	var nodes []*shardNode
	pinned := make(map[string]bool) // sessions with dedicated nodes, by shard
	for k := range res.local {
		if !dirty[k] {
			continue
		}
		for _, g := range res.local[k].GPUs {
			if g.Saturated {
				for _, a := range g.Allocs {
					pinned[pinKey(k, a.SessionID)] = true
				}
			}
		}
		for pos := range res.local[k].GPUs {
			g := &res.local[k].GPUs[pos]
			// Spatial nodes never participate: a pinned slice has no duty
			// cycle to merge into another node's round.
			if g.Saturated || g.Spatial || g.Duty <= 0 || len(g.Allocs) == 0 {
				continue
			}
			if rn := gpuToRes(g, profiles); rn != nil {
				nodes = append(nodes, &shardNode{shard: k, pos: pos, res: rn})
			}
		}
	}
	if len(nodes) < 2 {
		return
	}
	// Donors: lowest occupancy first, deterministic tie-break, bounded.
	donors := make([]*shardNode, 0, len(nodes))
	for _, sn := range nodes {
		if sn.res.occ >= lowOccupancy {
			continue
		}
		eligible := true
		for _, a := range sn.res.allocs {
			if pinned[pinKey(sn.shard, a.session.ID)] {
				eligible = false
				break
			}
		}
		if eligible {
			donors = append(donors, sn)
		}
	}
	sortShardNodes(donors)
	if len(donors) > maxShardDonors {
		donors = donors[:maxShardDonors]
	}
	changed := make(map[int]bool)
	for _, d := range donors {
		if d.removed {
			continue
		}
		dests, ok := drainShardNode(d, nodes, cfg)
		if !ok {
			continue
		}
		d.removed = true
		changed[d.shard] = true
		res.Stats.NodesRemoved++
		res.Stats.SessionsMoved += len(d.res.allocs)
		for i, a := range d.res.allocs {
			to := nodes[dests[i]]
			changed[to.shard] = true
			if to.shard != d.shard {
				res.Stats.CrossShardMoves++
				res.home[a.session.ID] = to.shard
			}
		}
	}
	if len(changed) == 0 {
		return
	}
	// Rebuild the affected shard plans: original node order, drained
	// donors dropped, recipients re-derived from their resNodes.
	for k := range res.local {
		if !changed[k] {
			continue
		}
		byPos := make(map[int]*shardNode)
		for _, sn := range nodes {
			if sn.shard == k {
				byPos[sn.pos] = sn
			}
		}
		old := res.local[k].GPUs
		rebuilt := make([]GPUPlan, 0, len(old))
		for pos := range old {
			sn := byPos[pos]
			if sn == nil {
				rebuilt = append(rebuilt, old[pos])
				continue
			}
			if sn.removed {
				continue
			}
			g := sn.res.toPlan()
			g.ID = old[pos].ID
			rebuilt = append(rebuilt, g)
		}
		res.local[k] = &Plan{GPUs: rebuilt}
	}
}

func pinKey(shard int, sessionID string) string {
	return strconv.Itoa(shard) + "\x00" + sessionID
}

// sortShardNodes orders rebalance donors: occupancy ascending, then shard,
// then position — a total, deterministic order.
func sortShardNodes(nodes []*shardNode) {
	for i := 1; i < len(nodes); i++ {
		for j := i; j > 0 && shardNodeLess(nodes[j], nodes[j-1]); j-- {
			nodes[j], nodes[j-1] = nodes[j-1], nodes[j]
		}
	}
}

func shardNodeLess(a, b *shardNode) bool {
	if a.res.occ != b.res.occ {
		return a.res.occ < b.res.occ
	}
	if a.shard != b.shard {
		return a.shard < b.shard
	}
	return a.pos < b.pos
}

// gpuToRes reconstructs a shared plan node as a resNode so the rebalance
// can reuse the merge machinery. Returns nil when a profile is missing
// (defensive: such a node is simply not a rebalance candidate).
func gpuToRes(g *GPUPlan, profiles map[string]*profiler.Profile) *resNode {
	rn := &resNode{duty: g.Duty, planID: g.ID}
	for _, a := range g.Allocs {
		p, ok := profiles[a.ModelID]
		if !ok || a.Batch < 1 {
			return nil
		}
		rn.allocs = append(rn.allocs, residualAlloc{
			session: Session{ID: a.SessionID, ModelID: a.ModelID, SLO: g.Duty + p.BatchLatency(a.Batch), Rate: a.Rate},
			profile: p, batch: a.Batch, duty: g.Duty,
			occ: float64(p.BatchLatency(a.Batch)) / float64(g.Duty),
		})
	}
	rn.computeOcc()
	return rn
}

// drainShardNode tries to move every allocation of donor d into other live
// shard nodes, best-fit. On success the moves are applied in place and the
// destination index of each allocation is returned; on failure nothing
// changes. Unlike intra-shard consolidation there is no growth margin:
// flap protection comes from the hysteresis band upstream (a shard whose
// rates stay in band never re-plans, so never re-balances), and with
// hysteresis off the decision is a pure function of this epoch's rates.
func drainShardNode(d *shardNode, nodes []*shardNode, cfg Config) ([]int, bool) {
	// mergeNodes never mutates its inputs, so speculative placement just
	// swaps node pointers; rollback restores the originals.
	touched := make(map[int]*resNode)
	dests := make([]int, 0, len(d.res.allocs))
	for _, a := range d.res.allocs {
		item := &resNode{duty: a.duty, allocs: []residualAlloc{a}}
		item.computeOcc()
		bestIdx := -1
		var best *resNode
		for i, sn := range nodes {
			if sn == d || sn.removed {
				continue
			}
			merged, ok := mergeNodes(sn.res, item, cfg)
			if ok && (best == nil || merged.occ > best.occ) {
				best, bestIdx = merged, i
			}
		}
		if best == nil {
			for i, saved := range touched {
				nodes[i].res = saved
			}
			return nil, false
		}
		if _, saved := touched[bestIdx]; !saved {
			touched[bestIdx] = nodes[bestIdx].res
		}
		best.planID = nodes[bestIdx].res.planID
		nodes[bestIdx].res = best
		dests = append(dests, bestIdx)
	}
	return dests, true
}
