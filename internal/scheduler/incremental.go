package scheduler

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nexus/internal/profiler"
)

// MoveStats summarizes how much an incremental epoch disturbed the cluster.
type MoveStats struct {
	NodesKept    int // nodes whose ID survives from the previous plan
	NodesAdded   int
	NodesRemoved int
	// SessionsMoved counts session placements whose node changed (a model
	// load on a new backend).
	SessionsMoved int
}

// lowOccupancy is the consolidation threshold: shared nodes under this
// occupancy have their sessions moved elsewhere when possible ("the
// scheduler attempts to move sessions from the least utilized backends").
const lowOccupancy = 0.25

// replan re-plans a shard's sessions against its committed plan prev:
// incrementally when one exists, from scratch otherwise. Incremental reuses
// prior shared nodes and does not understand slice-pinned placements, so
// spatial and hybrid configs always full-pack.
func replan(prev *Plan, sessions []Session, profiles map[string]*profiler.Profile, cfg Config) (*Plan, MoveStats, error) {
	if prev == nil || cfg.Placement != PlaceTemporal {
		plan, err := Pack(sessions, profiles, cfg)
		return plan, MoveStats{}, err
	}
	return Incremental(prev, sessions, profiles, cfg)
}

// Incremental re-schedules for new session rates while minimizing model
// movement across epochs (§6.1): existing nodes keep their sessions when
// their (re-derived) allocations still fit; overloaded nodes evict their
// cheapest sessions; underutilized nodes are drained into others and
// released; evicted and new sessions are bin-packed into whatever is left.
func Incremental(prev *Plan, sessions []Session, profiles map[string]*profiler.Profile, cfg Config) (*Plan, MoveStats, error) {
	var stats MoveStats
	byID := make(map[string]Session)
	for _, s := range sessions {
		if err := s.Validate(); err != nil {
			return nil, stats, err
		}
		byID[s.ID] = s
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
			return nil, stats, fmt.Errorf("scheduler: no profile for model %s (session %s)", s.ModelID, s.ID)
		}
		maxLat := time.Duration(float64(s.SLO) / cfg.sloFactor())
		b := p.MaxBatchWithin(maxLat)
		if b == 0 {
			return nil, stats, fmt.Errorf("scheduler: session %s infeasible under SLO %v", s.ID, s.SLO)
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
			node := GPUPlan{
				Duty:      p.BatchLatency(b),
				Saturated: true,
				Allocs:    []Alloc{{SessionID: s.ID, ModelID: s.ModelID, Batch: b, Rate: serve}},
			}
			if i < len(reuse) {
				node.ID = reuse[i].ID
				stats.NodesKept++
			} else {
				node.ID = newID()
				stats.NodesAdded++
				stats.SessionsMoved++
			}
			out = append(out, node)
		}
		if dedicated < len(reuse) {
			stats.NodesRemoved += len(reuse) - dedicated
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
			stats.NodesKept++
			keptNodes = append(keptNodes, node)
			continue
		}
		node, evicted, err := rebuildNode(members, profiles, cfg)
		if err != nil {
			return nil, stats, err
		}
		pending = append(pending, evicted...)
		stats.SessionsMoved += len(evicted)
		if node != nil {
			node.planID = nid
			stats.NodesKept++
			keptNodes = append(keptNodes, node)
		} else {
			stats.NodesRemoved++
		}
	}

	// --- place pending sessions -------------------------------------------
	sort.Slice(pending, func(i, j int) bool { return pending[i].ID < pending[j].ID })
	var freshNodes []*resNode
	for _, s := range pending {
		p := profiles[s.ModelID]
		dedicated, rest, err := ResidualPlacement(s, p, cfg)
		if err != nil {
			return nil, stats, err
		}
		for _, g := range dedicated {
			g.ID = newID()
			out = append(out, g)
			stats.NodesAdded++
		}
		if rest == nil {
			continue
		}
		item := &resNode{duty: rest.duty, allocs: []residualAlloc{*rest}}
		item.computeOcc()
		if !placeBestFit(item, keptNodes, cfg) && !placeBestFit(item, freshNodes, cfg) {
			item.planID = newID()
			freshNodes = append(freshNodes, item)
			stats.NodesAdded++
		}
		if prevNode[s.ID] != "" {
			// It had a home before; wherever it landed counts as a move
			// only if the node differs. placeBestFit into kept nodes may
			// land it back home, but eviction already counted it, so do
			// not double count here.
			continue
		}
		stats.SessionsMoved++
	}

	// --- consolidate underutilized nodes -----------------------------------
	sort.Slice(keptNodes, func(i, j int) bool { return keptNodes[i].occ < keptNodes[j].occ })
	for i, n := range keptNodes {
		if n == nil || n.occ >= lowOccupancy {
			continue
		}
		others := make([]*resNode, 0, len(keptNodes)+len(freshNodes))
		for j, m := range keptNodes {
			if j != i && m != nil {
				others = append(others, m)
			}
		}
		others = append(others, freshNodes...)
		if drainNode(n, others, cfg) {
			stats.SessionsMoved += len(n.allocs)
			stats.NodesRemoved++
			stats.NodesKept--
			keptNodes[i] = nil
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
	plan := &Plan{GPUs: out}
	return plan, stats, nil
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
		node.allocs = append(node.allocs, residualAlloc{
			session: m, profile: p, batch: a.Batch, duty: prevNode.Duty,
			occ: float64(lat) / float64(prevNode.Duty),
		})
	}
	if busy > prevNode.Duty {
		return nil
	}
	if cfg.GPUMemBytes > 0 && node.memBytes() > cfg.GPUMemBytes {
		return nil
	}
	node.computeOcc()
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
		b, d, err := ResidualBatch(p, s.SLO, s.Rate)
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

// buildNode combines allocations into a single node with duty = min duty,
// reporting whether the result is feasible.
func buildNode(allocs []residualAlloc, cfg Config) (*resNode, bool) {
	duty := allocs[0].duty
	for _, a := range allocs[1:] {
		if a.duty < duty {
			duty = a.duty
		}
	}
	node := &resNode{duty: duty}
	var busy time.Duration
	for _, a := range allocs {
		nb := int(math.Ceil(duty.Seconds()*a.session.Rate - 1e-12))
		if nb < 1 {
			nb = 1
		}
		if nb > a.profile.MaxBatch {
			return nil, false
		}
		lat := a.profile.BatchLatency(nb)
		if duty+lat > a.session.SLO {
			return nil, false
		}
		busy += lat
		a.batch = nb
		node.allocs = append(node.allocs, a)
	}
	if busy > duty {
		return nil, false
	}
	if cfg.GPUMemBytes > 0 && node.memBytes() > cfg.GPUMemBytes {
		return nil, false
	}
	node.computeOcc()
	return node, true
}

// placeBestFit merges item into the candidate node that yields the highest
// post-merge occupancy, mutating that node in place. It reports success.
func placeBestFit(item *resNode, nodes []*resNode, cfg Config) bool {
	bestIdx := -1
	var best *resNode
	for i, n := range nodes {
		if n == nil {
			continue
		}
		merged, ok := mergeNodes(n, item, cfg)
		if ok && (best == nil || merged.occ > best.occ) {
			best, bestIdx = merged, i
		}
	}
	if best == nil {
		return false
	}
	best.planID = nodes[bestIdx].planID
	*nodes[bestIdx] = *best
	return true
}

// drainGrowthMargin requires a drained node's sessions to fit their new
// homes even if their rates grew by this factor. Consolidating with zero
// slack would flap: the next epoch's rate jitter would evict the sessions
// right back out, and each move costs a model reload.
const drainGrowthMargin = 1.15

// drainNode tries to move every session of n into other nodes; on success
// the moves are applied and it returns true, otherwise nothing changes.
func drainNode(n *resNode, others []*resNode, cfg Config) bool {
	// First check placement feasibility with rates inflated by the growth
	// margin, on scratch copies.
	probe := make([]*resNode, len(others))
	for i, o := range others {
		c := *o
		c.allocs = append([]residualAlloc(nil), o.allocs...)
		probe[i] = &c
	}
	for _, a := range n.allocs {
		inflated := a
		inflated.session.Rate *= drainGrowthMargin
		item := &resNode{duty: a.duty, allocs: []residualAlloc{inflated}}
		item.computeOcc()
		if !placeBestFit(item, probe, cfg) {
			return false
		}
	}
	// Feasible with margin: apply for real at actual rates (fits a
	// fortiori, since smaller rates need no larger batches).
	copies := make([]*resNode, len(others))
	for i, o := range others {
		c := *o
		c.allocs = append([]residualAlloc(nil), o.allocs...)
		copies[i] = &c
	}
	for _, a := range n.allocs {
		item := &resNode{duty: a.duty, allocs: []residualAlloc{a}}
		item.computeOcc()
		if !placeBestFit(item, copies, cfg) {
			return false
		}
	}
	for i, o := range others {
		*o = *copies[i]
	}
	return true
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
