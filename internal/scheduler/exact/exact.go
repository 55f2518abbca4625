// Package exact solves the residual GPU scheduling integer program of §6.1
// exactly, by branch and bound. The paper used CPLEX for the same purpose:
// validating the greedy squishy bin packing on small instances ("computing
// the minimum number of GPUs for 25 sessions takes several hours"). This
// solver is practical for roughly a dozen sessions — enough to measure the
// greedy algorithm's optimality gap in tests and benchmarks.
//
// It also contains the Appendix A reduction from 3-PARTITION to the
// Fixed-rate GPU Scheduling Problem (FGSP), executable as code.
package exact

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nexus/internal/profiler"
	"nexus/internal/scheduler"
)

// MaxSessions bounds instance size; beyond this the search space (Bell
// numbers) is impractical.
const MaxSessions = 14

// MinGPUs returns the minimum number of GPUs needed to schedule the
// sessions under the IP of §6.1: each GPU's duty cycle equals the sum of
// its batch latencies (constraint e), batches cover the request rate
// (constraint g: b_i >= r_i * d), and worst-case latency d + ℓ_i(b_i)
// meets each SLO (constraint f). Like the paper's formulation, each session
// is assigned to exactly one GPU (constraint b), so every session's rate
// must be below single-GPU capacity — true of residual loads by
// construction; larger sessions must be reduced by Pack's saturate pass first.
func MinGPUs(sessions []scheduler.Session, profiles map[string]*profiler.Profile, cfg scheduler.Config) (int, error) {
	if len(sessions) == 0 {
		return 0, nil
	}
	if len(sessions) > MaxSessions {
		return 0, fmt.Errorf("exact: %d sessions exceeds limit %d", len(sessions), MaxSessions)
	}
	items := make([]item, 0, len(sessions))
	for _, s := range sessions {
		if err := s.Validate(); err != nil {
			return 0, err
		}
		if s.Rate == 0 {
			continue
		}
		p, ok := profiles[s.ModelID]
		if !ok {
			return 0, fmt.Errorf("exact: no profile for model %s", s.ModelID)
		}
		items = append(items, item{s: s, p: p})
	}
	if len(items) == 0 {
		return 0, nil
	}
	// Deterministic order, largest loads first (prunes faster).
	sort.Slice(items, func(i, j int) bool {
		li := items[i].s.Rate * items[i].p.BatchLatency(1).Seconds()
		lj := items[j].s.Rate * items[j].p.BatchLatency(1).Seconds()
		if li != lj {
			return li > lj
		}
		return items[i].s.ID < items[j].s.ID
	})
	// Upper bound from the greedy algorithm.
	greedy, err := scheduler.ScheduleResidue(sessionsOf(items), profiles, cfg)
	if err != nil {
		return 0, err
	}
	best := len(greedy)
	if best == 0 {
		best = len(items)
	}
	// Every item must be feasible alone, else the instance is unsolvable.
	for i := range items {
		if !feasibleSet([]*item{&items[i]}, cfg) {
			return 0, fmt.Errorf("exact: session %s infeasible on its own", items[i].s.ID)
		}
	}
	solver := &bb{items: items, cfg: cfg, best: best}
	solver.search(0, nil)
	return solver.best, nil
}

type item struct {
	s scheduler.Session
	p *profiler.Profile
}

func sessionsOf(items []item) []scheduler.Session {
	out := make([]scheduler.Session, len(items))
	for i := range items {
		out[i] = items[i].s
	}
	return out
}

type bb struct {
	items []item
	cfg   scheduler.Config
	best  int
}

// search assigns items[idx:] to bins, branching over existing bins plus one
// fresh bin (standard symmetry breaking).
func (b *bb) search(idx int, bins [][]*item) {
	if len(bins) >= b.best {
		return // cannot improve
	}
	if idx == len(b.items) {
		if len(bins) < b.best {
			b.best = len(bins)
		}
		return
	}
	it := &b.items[idx]
	for bi := range bins {
		bins[bi] = append(bins[bi], it)
		if feasibleSet(bins[bi], b.cfg) {
			b.search(idx+1, bins)
		}
		bins[bi] = bins[bi][:len(bins[bi])-1]
	}
	// Open a new bin.
	bins = append(bins, []*item{it})
	b.search(idx+1, bins)
}

// feasibleSet decides whether a set of sessions can share one GPU under the
// IP constraints. The duty cycle d must satisfy d = Σ ℓ_i(ceil(r_i d)):
// iterate to the least fixpoint from below, then check SLOs, batch bounds
// and memory.
func feasibleSet(set []*item, cfg scheduler.Config) bool {
	// Start from the smallest possible duty cycle (all batches = 1).
	d := time.Duration(0)
	for _, it := range set {
		d += it.p.BatchLatency(1)
	}
	for iter := 0; iter < 1000; iter++ {
		var next time.Duration
		for _, it := range set {
			nb := batchFor(it, d)
			if nb > it.p.MaxBatch {
				return false
			}
			next += it.p.BatchLatency(nb)
		}
		if next <= d {
			// Fixpoint (or shrink, which cannot happen for monotone ℓ).
			break
		}
		d = next
	}
	var mem int64
	for _, it := range set {
		nb := batchFor(it, d)
		if nb > it.p.MaxBatch {
			return false
		}
		if d+it.p.BatchLatency(nb) > it.s.SLO {
			return false
		}
		mem += it.p.MemBase + int64(nb)*it.p.MemPerItem
	}
	if cfg.GPUMemBytes > 0 && mem > cfg.GPUMemBytes {
		return false
	}
	return true
}

func batchFor(it *item, d time.Duration) int {
	nb := int(math.Ceil(d.Seconds()*it.s.Rate - 1e-12))
	if nb < 1 {
		nb = 1
	}
	return nb
}

// --- Appendix A: 3-PARTITION -> FGSP reduction ---------------------------

// FGSPInstance is the Fixed-rate GPU Scheduling Problem of Appendix A:
// partition models with fixed latencies L_i and latency bounds B_i into C
// sets such that within each set, D + L_i <= B_i where D = Σ L_i.
type FGSPInstance struct {
	Latencies []time.Duration // L_i
	Bounds    []time.Duration // B_i
	GPUs      int             // C
}

// ReduceThreePartition maps a 3-PARTITION instance (bound B, 3n integers
// a_i with B/4 < a_i < B/2 summing to n*B) to FGSP exactly as in the
// Appendix A proof: L_i = 2B + a_i, B_i = 9B + a_i, C = n.
func ReduceThreePartition(bound int, a []int) (FGSPInstance, error) {
	if len(a)%3 != 0 {
		return FGSPInstance{}, fmt.Errorf("exact: 3-PARTITION needs 3n items, got %d", len(a))
	}
	n := len(a) / 3
	sum := 0
	for _, x := range a {
		if 4*x <= bound || 2*x >= bound {
			return FGSPInstance{}, fmt.Errorf("exact: item %d outside (B/4, B/2)", x)
		}
		sum += x
	}
	if sum != n*bound {
		return FGSPInstance{}, fmt.Errorf("exact: items sum to %d, want n*B = %d", sum, n*bound)
	}
	inst := FGSPInstance{GPUs: n}
	unit := time.Millisecond
	for _, x := range a {
		inst.Latencies = append(inst.Latencies, time.Duration(2*bound+x)*unit)
		inst.Bounds = append(inst.Bounds, time.Duration(9*bound+x)*unit)
	}
	return inst, nil
}

// SolveFGSP decides an FGSP instance by exhaustive partition search with
// pruning. A set S is feasible iff D <= min_{i in S}(B_i - L_i), where
// D = Σ_{i in S} L_i. Only for small instances (<= MaxSessions models).
func SolveFGSP(inst FGSPInstance) (bool, error) {
	n := len(inst.Latencies)
	if n != len(inst.Bounds) {
		return false, fmt.Errorf("exact: mismatched FGSP arrays")
	}
	if n > MaxSessions {
		return false, fmt.Errorf("exact: FGSP with %d models exceeds limit %d", n, MaxSessions)
	}
	type set struct {
		duty     time.Duration // D = sum of member latencies
		minSlack time.Duration // min over members of (B_i - L_i)
	}
	sets := make([]set, 0, inst.GPUs)
	var assign func(i int) bool
	assign = func(i int) bool {
		if i == n {
			return true
		}
		l, b := inst.Latencies[i], inst.Bounds[i]
		if b < l {
			return false // never satisfiable
		}
		for si := range sets {
			old := sets[si]
			sets[si].duty += l
			if b-l < sets[si].minSlack {
				sets[si].minSlack = b - l
			}
			if sets[si].duty <= sets[si].minSlack && assign(i+1) {
				return true
			}
			sets[si] = old
		}
		if len(sets) < inst.GPUs {
			sets = append(sets, set{duty: l, minSlack: b - l})
			if sets[len(sets)-1].duty <= sets[len(sets)-1].minSlack && assign(i+1) {
				return true
			}
			sets = sets[:len(sets)-1]
		}
		return false
	}
	return assign(0), nil
}
