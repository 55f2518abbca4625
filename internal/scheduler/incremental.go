package scheduler

import (
	"fmt"
	"sort"
	"time"

	"nexus/internal/profiler"
)

// MoveStats summarizes how much a plan disturbed the cluster relative to
// the plan before it. DiffPlans is its only source.
type MoveStats struct {
	NodesKept    int // node IDs in both plans
	NodesAdded   int // node IDs only in the new plan
	NodesRemoved int // node IDs only in the previous plan
	// SessionsMoved counts session allocations on a node ID that did not
	// hold the session before: each loads its model on a new backend. A
	// session new to the plan is placed, not moved.
	SessionsMoved int
}

// DiffPlans measures the disturbance from prev to cur. Nodes match by ID,
// because the control plane binds backends to plan node IDs. With prev nil
// every node is added and nothing moved.
func DiffPlans(prev, cur *Plan) MoveStats {
	if prev == nil {
		return MoveStats{NodesAdded: len(cur.GPUs)}
	}
	type placed struct{ node, session string }
	held := make(map[placed]bool)
	known := make(map[string]bool) // sessions with an allocation in prev
	nodes := make(map[string]bool, len(prev.GPUs))
	for _, g := range prev.GPUs {
		nodes[g.ID] = true
		for _, a := range g.Allocs {
			held[placed{g.ID, a.SessionID}] = true
			known[a.SessionID] = true
		}
	}
	var st MoveStats
	for _, g := range cur.GPUs {
		if nodes[g.ID] {
			st.NodesKept++
		}
		for _, a := range g.Allocs {
			if known[a.SessionID] && !held[placed{g.ID, a.SessionID}] {
				st.SessionsMoved++
			}
		}
	}
	st.NodesAdded = len(cur.GPUs) - st.NodesKept
	st.NodesRemoved = len(prev.GPUs) - st.NodesKept
	return st
}

// lowOccupancy is the consolidation threshold: shared nodes under this
// occupancy have their sessions moved elsewhere when possible ("the
// scheduler attempts to move sessions from the least utilized backends").
const lowOccupancy = 0.25

// replan re-plans a shard's sessions against its committed plan prev:
// incrementally under temporal placement once a committed plan exists,
// with a fresh Pack otherwise. The incremental path reuses prior shared
// nodes and does not understand slice-pinned placements, so spatial and
// hybrid configs always re-pack from scratch.
func replan(prev *Plan, sessions []Session, profiles map[string]*profiler.Profile, cfg Config) (*Plan, error) {
	if prev == nil || cfg.Placement != PlaceTemporal {
		return Pack(sessions, profiles, cfg)
	}
	return incremental(prev, sessions, profiles, cfg)
}

// incremental re-schedules for new session rates while minimizing model
// movement across epochs (§6.1): existing nodes keep their sessions when
// their (re-derived) allocations still fit; overloaded nodes evict their
// cheapest sessions; underutilized nodes are drained into others and
// released; evicted and new sessions are bin-packed into whatever is left.
func incremental(prev *Plan, sessions []Session, profiles map[string]*profiler.Profile, cfg Config) (*Plan, error) {
	for _, s := range sessions {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	prevNode := make(map[string]string) // session -> shared node ID in prev

	// --- saturated nodes -------------------------------------------------
	// Recompute per-session saturation and keep as many existing saturated
	// nodes as still needed.
	prevSat := make(map[string][]GPUPlan) // session -> saturated nodes
	for _, g := range prev.GPUs {
		if len(g.Allocs) == 0 {
			continue
		}
		if g.Saturated {
			sid := g.Allocs[0].SessionID
			prevSat[sid] = append(prevSat[sid], g)
		} else {
			for _, a := range g.Allocs {
				prevNode[a.SessionID] = g.ID
			}
		}
	}
	var out []GPUPlan
	var residue []Session
	maxSeq := planMaxSeq(prev)
	newID := func() string {
		maxSeq++
		return fmt.Sprintf("n%d", maxSeq)
	}
	for _, s := range sortSessions(sessions) {
		if s.Rate == 0 {
			continue
		}
		p, ok := profiles[s.ModelID]
		if !ok {
			return nil, fmt.Errorf("scheduler: no profile for model %s (session %s)", s.ModelID, s.ID)
		}
		b, err := saturateBatch(s, p, cfg)
		if err != nil {
			return nil, err
		}
		t := p.Throughput(b)
		n := int(s.Rate / t)
		reuse := prevSat[s.ID]
		// Hysteresis at the dedicated/shareable boundary: keep previously
		// dedicated nodes that would remain at least half utilized, rather
		// than flapping a session between a dedicated GPU and a shared
		// duty cycle as its rate jitters (each flap reloads a model).
		dedicated := n
		remaining := s.Rate - float64(n)*t
		for dedicated < len(reuse) && remaining >= dedicatedKeepFrac*t {
			dedicated++
			if remaining > t {
				remaining -= t
			} else {
				remaining = 0
			}
		}
		serveLeft := s.Rate
		for i := 0; i < dedicated; i++ {
			serve := t
			if serve > serveLeft {
				serve = serveLeft
			}
			serveLeft -= serve
			node := dedicatedNode(s, p, b, serve)
			if i < len(reuse) {
				node.ID = reuse[i].ID
			} else {
				node.ID = newID()
			}
			out = append(out, node)
		}
		if serveLeft > rateEpsilon {
			rs := s
			rs.Rate = serveLeft
			residue = append(residue, rs)
		}
	}

	// --- shared nodes ----------------------------------------------------
	// Keep each residual session on its previous shared node when that node
	// can still be rebuilt feasibly; overloaded nodes evict lowest-occupancy
	// sessions first.
	residueByNode := make(map[string][]Session)
	var pending []Session
	for _, s := range residue {
		if nid, ok := prevNode[s.ID]; ok {
			residueByNode[nid] = append(residueByNode[nid], s)
		} else {
			pending = append(pending, s)
		}
	}
	var keptNodes []*resNode
	prevByID := make(map[string]*GPUPlan, len(prev.GPUs))
	for i := range prev.GPUs {
		prevByID[prev.GPUs[i].ID] = &prev.GPUs[i]
	}
	nodeIDs := sortedKeys(residueByNode)
	for _, nid := range nodeIDs {
		members := residueByNode[nid]
		// Stability first: if the node's existing schedule still covers the
		// new rates and SLOs, keep it exactly as-is. Re-deriving batches
		// from noisy rates would otherwise oscillate node compositions at
		// steady load, and every move costs a model reload (§5's concern
		// about reconfiguration churn).
		if node := reuseNode(prevByID[nid], members, profiles, cfg); node != nil {
			node.planID = nid
			keptNodes = append(keptNodes, node)
			continue
		}
		node, evicted, err := rebuildNode(members, profiles, cfg)
		if err != nil {
			return nil, err
		}
		pending = append(pending, evicted...)
		if node != nil {
			node.planID = nid
			keptNodes = append(keptNodes, node)
		}
	}

	// --- place pending sessions -------------------------------------------
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })
	var freshNodes []*resNode
	for _, s := range pending {
		p := profiles[s.ModelID]
		dedicated, rest, err := residualPlacement(s, p, cfg)
		if err != nil {
			return nil, err
		}
		for _, g := range dedicated {
			g.ID = newID()
			out = append(out, g)
		}
		if rest == nil {
			continue
		}
		item := singleton(*rest)
		if i, merged := bestFit(item, keptNodes, cfg); merged != nil {
			keptNodes[i] = merged
		} else if i, merged := bestFit(item, freshNodes, cfg); merged != nil {
			freshNodes[i] = merged
		} else {
			item.planID = newID()
			freshNodes = append(freshNodes, item)
		}
	}

	// --- consolidate underutilized nodes -----------------------------------
	// Candidates are the kept nodes, the drained one and earlier drained
	// ones nil, then the fresh nodes; a drain commits them all at once.
	sort.Slice(keptNodes, func(i, j int) bool { return keptNodes[i].occ < keptNodes[j].occ })
	cands := make([]*resNode, 0, len(keptNodes)+len(freshNodes))
	for i, n := range keptNodes {
		if n == nil || n.occ >= lowOccupancy {
			continue
		}
		cands = append(append(cands[:0], keptNodes...), freshNodes...)
		cands[i] = nil
		if drainNode(n, cands, cfg) {
			copy(keptNodes, cands)
			copy(freshNodes, cands[len(keptNodes):])
		}
	}

	for _, n := range keptNodes {
		if n == nil {
			continue
		}
		g := n.toPlan()
		g.ID = n.planID
		out = append(out, g)
	}
	for _, n := range freshNodes {
		g := n.toPlan()
		g.ID = n.planID
		out = append(out, g)
	}
	return &Plan{GPUs: out}, nil
}

// reuseNode checks whether a previous shared node's exact schedule (duty
// cycle and batch sizes) still serves its members' new rates within their
// (possibly changed) SLOs and memory limits. It returns the node with
// updated rates, or nil when any condition fails.
func reuseNode(prevNode *GPUPlan, members []Session, profiles map[string]*profiler.Profile, cfg Config) *resNode {
	if prevNode == nil || prevNode.Saturated || prevNode.Duty <= 0 {
		return nil
	}
	// The member set must match the previous allocation exactly.
	if len(members) != len(prevNode.Allocs) {
		return nil
	}
	byID := make(map[string]Session, len(members))
	for _, m := range members {
		byID[m.ID] = m
	}
	node := &resNode{duty: prevNode.Duty}
	var busy time.Duration
	var mem int64
	for _, a := range prevNode.Allocs {
		m, ok := byID[a.SessionID]
		if !ok || m.ModelID != a.ModelID {
			return nil
		}
		p, ok := profiles[a.ModelID]
		if !ok {
			return nil
		}
		if a.Batch > p.MaxBatch {
			return nil
		}
		lat := p.BatchLatency(a.Batch)
		// Throughput: the node runs a batch of a.Batch every duty cycle.
		served := float64(a.Batch) / prevNode.Duty.Seconds()
		if served+rateEpsilon < m.Rate {
			return nil
		}
		// A large demand drop means the schedule is oversized; rebuild so
		// consolidation can reclaim the GPU.
		if m.Rate < 0.5*served-rateEpsilon {
			return nil
		}
		if prevNode.Duty+lat > m.SLO {
			return nil
		}
		busy += lat
		mem += p.MemBase + int64(a.Batch)*p.MemPerItem
		node.allocs = append(node.allocs, residualAlloc{
			session: m, profile: p, batch: a.Batch, duty: prevNode.Duty,
			occ: float64(lat) / float64(prevNode.Duty),
		})
	}
	if busy > prevNode.Duty || (cfg.GPUMemBytes > 0 && mem > cfg.GPUMemBytes) {
		return nil
	}
	node.occ = float64(busy) / float64(prevNode.Duty)
	return node
}

// rebuildNode re-derives a shared node's schedule for its members' new
// rates. It returns nil if the node ends up empty. Members that no longer
// fit are returned as evicted, cheapest (lowest occupancy contribution)
// first.
func rebuildNode(members []Session, profiles map[string]*profiler.Profile, cfg Config) (*resNode, []Session, error) {
	var allocs []residualAlloc
	var evictedEarly []Session
	for _, s := range members {
		if s.Rate <= 0 {
			continue
		}
		p, ok := profiles[s.ModelID]
		if !ok {
			return nil, nil, fmt.Errorf("scheduler: no profile for model %s", s.ModelID)
		}
		b, d, err := residualBatch(p, s, s.Rate)
		if err != nil {
			return nil, nil, err
		}
		if p.BatchLatency(b) > d {
			// Unsustainable as a shared allocation: hand the session back
			// for dedicated placement.
			evictedEarly = append(evictedEarly, s)
			continue
		}
		allocs = append(allocs, residualAlloc{
			session: s, profile: p, batch: b, duty: d,
			occ: float64(p.BatchLatency(b)) / float64(d),
		})
	}
	evicted := evictedEarly
	for len(allocs) > 0 {
		if node, ok := buildNode(allocs, cfg); ok {
			return node, evicted, nil
		}
		// Evict the cheapest session (smallest standalone occupancy).
		minIdx := 0
		for i := range allocs {
			if allocs[i].occ < allocs[minIdx].occ {
				minIdx = i
			}
		}
		evicted = append(evicted, allocs[minIdx].session)
		allocs = append(allocs[:minIdx], allocs[minIdx+1:]...)
	}
	return nil, evicted, nil
}

// buildNode combines allocations into a single node at the smallest of
// their duty cycles, reporting whether the result is feasible.
func buildNode(allocs []residualAlloc, cfg Config) (*resNode, bool) {
	duty := allocs[0].duty
	for _, a := range allocs[1:] {
		duty = min(duty, a.duty)
	}
	return fillDuty(duty, cfg, allocs)
}

// drainGrowthMargin requires a drained node's sessions to fit their new
// homes even if their rates grew by this factor. Consolidating with zero
// slack would flap: the next epoch's rate jitter would evict the sessions
// right back out, and each move costs a model reload.
const drainGrowthMargin = 1.15

// drainNode tries to place every session of n into cands, a scratch slice
// of candidate nodes (nil entries skipped). A probe on a copy of cands
// first places the sessions at rates inflated by drainGrowthMargin; only
// if that succeeds are the actual rates placed into cands itself (they fit
// a fortiori, since smaller rates need no larger batches). It reports
// whether both placed every session; the caller commits cands only then.
func drainNode(n *resNode, cands []*resNode, cfg Config) bool {
	inflated := make([]residualAlloc, len(n.allocs))
	for i, a := range n.allocs {
		a.session.Rate *= drainGrowthMargin
		inflated[i] = a
	}
	if _, ok := placeAll(inflated, append([]*resNode(nil), cands...), cfg); !ok {
		return false
	}
	_, ok := placeAll(n.allocs, cands, cfg)
	return ok
}

// planMaxSeq returns the largest numeric suffix of "n<k>" node IDs.
func planMaxSeq(p *Plan) int {
	maxSeq := -1
	for _, g := range p.GPUs {
		var k int
		if _, err := fmt.Sscanf(g.ID, "n%d", &k); err == nil && k > maxSeq {
			maxSeq = k
		}
	}
	return maxSeq
}

func sortedKeys(m map[string][]Session) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// dedicatedKeepFrac is the minimum utilization at which a previously
// dedicated node is retained instead of pushing its session back into the
// shared bin packing.
const dedicatedKeepFrac = 0.5
