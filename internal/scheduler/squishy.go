package scheduler

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nexus/internal/profiler"
)

// Pack runs squishy bin packing (Algorithm 1): it saturates whole GPUs for
// large sessions, then best-fit-decreasing merges the residual loads into
// shared duty cycles. When cfg.Placement allows spatial multiplexing, a
// slice-packing pass between the two pins suitable residuals to
// fractional-SM partitions instead (scheduleSpatial). The returned plan
// always passes Validate for the given sessions, profiles and config.
func Pack(sessions []Session, profiles map[string]*profiler.Profile, cfg Config) (*Plan, error) {
	nodes, residue, err := scheduleSaturate(sessions, profiles, cfg)
	if err != nil {
		return nil, err
	}
	spatialNodes, residue, err := scheduleSpatial(residue, profiles, cfg)
	if err != nil {
		return nil, err
	}
	resNodes, err := ScheduleResidue(residue, profiles, cfg)
	if err != nil {
		return nil, err
	}
	plan := &Plan{GPUs: append(append(nodes, spatialNodes...), resNodes...)}
	for i := range plan.GPUs {
		plan.GPUs[i].ID = fmt.Sprintf("n%d", i)
	}
	return plan, nil
}

// scheduleSaturate allocates whole GPUs to sessions with enough load to
// saturate them (Algorithm 1, lines 4-11). It returns the saturated nodes
// and the residual per-session loads still to be packed.
func scheduleSaturate(sessions []Session, profiles map[string]*profiler.Profile, cfg Config) ([]GPUPlan, []Session, error) {
	var nodes []GPUPlan
	var residue []Session
	for _, s := range sortSessions(sessions) {
		if err := s.Validate(); err != nil {
			return nil, nil, err
		}
		if s.Rate == 0 {
			continue
		}
		p, ok := profiles[s.ModelID]
		if !ok {
			return nil, nil, fmt.Errorf("scheduler: no profile for model %s (session %s)", s.ModelID, s.ID)
		}
		b, err := saturateBatch(s, p, cfg)
		if err != nil {
			return nil, nil, err
		}
		t := p.Throughput(b)
		n := int(s.Rate / t)
		for i := 0; i < n; i++ {
			nodes = append(nodes, dedicatedNode(s, p, b, t))
		}
		if r := s.Rate - float64(n)*t; r > rateEpsilon {
			rs := s
			rs.Rate = r
			residue = append(residue, rs)
		}
	}
	return nodes, residue, nil
}

// saturateBatch is B = argmax{b : factor·ℓ(b) <= SLO}, the batch a whole
// GPU runs back to back for s: the worst case is one full batch of waiting
// plus one of execution (§4.1).
func saturateBatch(s Session, p *profiler.Profile, cfg Config) (int, error) {
	b := p.MaxBatchWithin(time.Duration(float64(s.SLO) / cfg.WorstCaseFactor()))
	if b == 0 {
		return 0, fmt.Errorf("scheduler: session %s infeasible: %v*l(1)=%v exceeds SLO %v",
			s.ID, cfg.WorstCaseFactor(), time.Duration(cfg.WorstCaseFactor()*float64(p.BatchLatency(1))), s.SLO)
	}
	return b, nil
}

// dedicatedNode is a whole GPU serving rate of s at batch b.
func dedicatedNode(s Session, p *profiler.Profile, b int, rate float64) GPUPlan {
	return GPUPlan{
		Duty:      p.BatchLatency(b),
		Saturated: true,
		Allocs:    []Alloc{{SessionID: s.ID, ModelID: s.ModelID, Batch: b, Rate: rate}},
	}
}

// residualAlloc is the initial single-session allocation of a residual
// load (Algorithm 1, lines 12-15): the largest batch b whose duty cycle
// b/r plus execution still meets the SLO.
type residualAlloc struct {
	session Session
	profile *profiler.Profile
	batch   int
	duty    time.Duration
	occ     float64
}

// residualBatch computes the batch size and duty cycle for a residual load
// of session s at the given rate under its SLO: the largest b with
// ℓ(b) + b/rate <= SLO. Low-rate sessions for which even b=1 cannot fill a
// duty cycle in time run at batch 1 with the duty cycle clamped to
// SLO - ℓ(1). Errors name s's model, not p's: a variant's profile may be
// its source's.
func residualBatch(p *profiler.Profile, s Session, rate float64) (batch int, duty time.Duration, err error) {
	slo := s.SLO
	if rate <= 0 {
		return 0, 0, fmt.Errorf("scheduler: residualBatch with rate %v", rate)
	}
	gather := func(b int) time.Duration {
		return time.Duration(float64(b) / rate * float64(time.Second))
	}
	feasible := func(b int) bool { return p.BatchLatency(b)+gather(b) <= slo }
	if !feasible(1) {
		// Too few requests to fill even a single-item duty cycle within
		// the SLO: run batch 1 whenever work arrives, with the duty cycle
		// bounded so worst-case latency still meets the SLO.
		duty = slo - p.BatchLatency(1)
		if duty <= 0 {
			return 0, 0, fmt.Errorf("scheduler: SLO %v below batch-1 latency %v for %s",
				slo, p.BatchLatency(1), s.ModelID)
		}
		return 1, duty, nil
	}
	lo, hi := 1, p.MaxBatch
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, gather(lo), nil
}

// residualPlacement expands one residual load into zero or more dedicated
// nodes plus at most one shareable allocation. The paper's batch choice
// (line 13) can select a batch whose execution latency exceeds its gather
// time b/r — a load no shared duty cycle can sustain (occupancy would top
// 1). Such loads get a dedicated node running the saturate batch
// back-to-back (worst case 2ℓ(B) <= SLO, §4.1), and only a sustainable
// remainder, if any, becomes a shareable residual allocation.
func residualPlacement(s Session, p *profiler.Profile, cfg Config) (dedicated []GPUPlan, rest *residualAlloc, err error) {
	rate := s.Rate
	for iter := 0; rate > rateEpsilon; iter++ {
		if iter > 10000 {
			return nil, nil, fmt.Errorf("scheduler: residual placement for %s did not converge", s.ID)
		}
		b, d, err := residualBatch(p, s, rate)
		if err != nil {
			return nil, nil, err
		}
		lat := p.BatchLatency(b)
		if lat <= d {
			rs := s
			rs.Rate = rate
			return dedicated, &residualAlloc{
				session: rs, profile: p, batch: b, duty: d,
				occ: float64(lat) / float64(d),
			}, nil
		}
		// Unsustainable as a shared allocation: dedicate a saturated node.
		bSat, err := saturateBatch(s, p, cfg)
		if err != nil {
			return nil, nil, err
		}
		serve := math.Min(rate, p.Throughput(bSat))
		dedicated = append(dedicated, dedicatedNode(s, p, bSat, serve))
		rate -= serve
	}
	return dedicated, nil, nil
}

// ScheduleResidue packs residual loads into shared nodes (Algorithm 1,
// lines 12-30): initial max-batch allocations, sorted by occupancy
// descending, merged best-fit into existing duty cycles.
func ScheduleResidue(residue []Session, profiles map[string]*profiler.Profile, cfg Config) ([]GPUPlan, error) {
	allocs := make([]residualAlloc, 0, len(residue))
	var dedicated []GPUPlan
	for _, s := range sortSessions(residue) {
		if s.Rate <= 0 {
			continue
		}
		p, ok := profiles[s.ModelID]
		if !ok {
			return nil, fmt.Errorf("scheduler: no profile for model %s (session %s)", s.ModelID, s.ID)
		}
		ded, rest, err := residualPlacement(s, p, cfg)
		if err != nil {
			return nil, err
		}
		dedicated = append(dedicated, ded...)
		if rest != nil {
			allocs = append(allocs, *rest)
		}
	}
	// Best-fit decreasing by occupancy (line 16).
	sort.SliceStable(allocs, func(i, j int) bool {
		if allocs[i].occ != allocs[j].occ {
			return allocs[i].occ > allocs[j].occ
		}
		return allocs[i].session.ID < allocs[j].session.ID
	})
	var nodes []*resNode
	for _, a := range allocs {
		item := singleton(a)
		if i, merged := bestFit(item, nodes, cfg); merged != nil {
			nodes[i] = merged
		} else {
			nodes = append(nodes, item)
		}
	}
	out := make([]GPUPlan, 0, len(nodes)+len(dedicated))
	out = append(out, dedicated...)
	for _, n := range nodes {
		out = append(out, n.toPlan())
	}
	return out, nil
}

// resNode is a shared GPU node under construction.
type resNode struct {
	duty   time.Duration
	allocs []residualAlloc
	occ    float64
	planID string // stable node ID, used by incremental scheduling
}

// singleton is a node holding one residual allocation at its own duty
// cycle: the item the best-fit placement merges.
func singleton(a residualAlloc) *resNode {
	return &resNode{duty: a.duty, allocs: []residualAlloc{a},
		occ: float64(a.profile.BatchLatency(a.batch)) / float64(a.duty)}
}

func (n *resNode) toPlan() GPUPlan {
	g := GPUPlan{Duty: n.duty}
	for _, a := range n.allocs {
		g.Allocs = append(g.Allocs, Alloc{
			SessionID: a.session.ID,
			ModelID:   a.session.ModelID,
			Batch:     a.batch,
			Rate:      a.session.Rate,
		})
	}
	return g
}

// dutyBatch is the batch that serves a's rate once per duty cycle:
// ceil(duty*rate), at least 1.
func dutyBatch(duty time.Duration, a residualAlloc) int {
	return max(1, int(math.Ceil(duty.Seconds()*a.session.Rate-1e-12)))
}

// fillDuty runs the given allocations in one duty cycle (Figure 7): every
// batch is recomputed as dutyBatch, which only shrinks the batches of
// allocations whose own duty cycle is at least as long, so SLOs are
// preserved. The node is feasible when every batch meets its session's
// SLO, the batch executions fit within the duty cycle, and memory capacity
// permits. A failed fill allocates nothing.
func fillDuty(duty time.Duration, cfg Config, parts ...[]residualAlloc) (*resNode, bool) {
	var busy time.Duration
	var mem int64
	n := 0
	for _, part := range parts {
		for _, a := range part {
			nb := dutyBatch(duty, a)
			if nb > a.profile.MaxBatch {
				return nil, false
			}
			lat := a.profile.BatchLatency(nb)
			if duty+lat > a.session.SLO {
				return nil, false
			}
			busy += lat
			mem += a.profile.MemBase + int64(nb)*a.profile.MemPerItem
			n++
		}
	}
	if busy > duty || (cfg.GPUMemBytes > 0 && mem > cfg.GPUMemBytes) {
		return nil, false
	}
	node := &resNode{duty: duty, allocs: make([]residualAlloc, 0, n), occ: float64(busy) / float64(duty)}
	for _, part := range parts {
		for _, a := range part {
			a.batch = dutyBatch(duty, a)
			node.allocs = append(node.allocs, a)
		}
	}
	return node, true
}

// mergeNodes attempts to combine two nodes into one duty cycle, the
// smaller of the two (Figure 7).
func mergeNodes(a, b *resNode, cfg Config) (*resNode, bool) {
	return fillDuty(min(a.duty, b.duty), cfg, a.allocs, b.allocs)
}

// bestFit is the packer's one best-fit rule (Algorithm 1, lines 17-29): it
// merges item into each candidate and returns the index and merged node of
// the first candidate with strictly the highest post-merge occupancy, or
// -1 and nil when item fits nowhere. Nil candidates are skipped, and the
// merged node keeps its candidate's planID. Neither input is modified.
func bestFit(item *resNode, cands []*resNode, cfg Config) (int, *resNode) {
	bestIdx := -1
	var best *resNode
	for i, n := range cands {
		if n == nil {
			continue
		}
		merged, ok := mergeNodes(n, item, cfg)
		if ok && (best == nil || merged.occ > best.occ) {
			best, bestIdx = merged, i
		}
	}
	if best != nil {
		best.planID = cands[bestIdx].planID
	}
	return bestIdx, best
}

// placeAll best-fits allocs, in order, into cands, replacing each chosen
// candidate with its merged node, and returns every alloc's destination
// index. It reports false as soon as an alloc fits nowhere. It never
// modifies the nodes cands points to, so callers hand it a scratch slice
// of candidates and commit that slice only when every alloc placed.
func placeAll(allocs []residualAlloc, cands []*resNode, cfg Config) ([]int, bool) {
	dests := make([]int, len(allocs))
	for k, a := range allocs {
		i, merged := bestFit(singleton(a), cands, cfg)
		if merged == nil {
			return nil, false
		}
		cands[i], dests[k] = merged, i
	}
	return dests, true
}
