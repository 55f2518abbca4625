// Package hetero extends squishy bin packing to clusters that mix GPU
// generations. The paper evaluates on homogeneous clusters (GTX 1080Tis
// for the 16-GPU case studies, K80s for the 100-GPU deployment), but its
// cost argument (§2.1, Table 1) implies a placement question the moment a
// fleet holds both: which sessions belong on expensive fast devices and
// which on cheap slow ones?
//
// The answer implemented here: assign each session to the GPU type that
// serves it at the lowest dollar cost per request, subject to SLO
// feasibility and per-type capacity, then run the standard squishy packing
// independently per type. Tight-SLO sessions are forced onto fast devices
// (slow ones cannot meet 2ℓ(1) ≤ SLO); throughput-bound sessions drift to
// whatever is cheapest per request.
package hetero

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nexus/internal/profiler"
	"nexus/internal/scheduler"
)

// TypedProfiles maps GPU type -> model ID -> batching profile.
type TypedProfiles map[profiler.GPUType]map[string]*profiler.Profile

// Capacity is the number of GPUs available per type.
type Capacity map[profiler.GPUType]int

// Assignment is the result of heterogeneous packing.
type Assignment struct {
	// Plans holds one squishy plan per GPU type (types with no sessions
	// are absent).
	Plans map[profiler.GPUType]*scheduler.Plan
	// SessionType records each session's chosen device type.
	SessionType map[string]profiler.GPUType
	// CostPerHour is the dollar cost of the GPUs the assignment uses.
	CostPerHour float64
}

// GPUs returns the total GPU count across types.
func (a *Assignment) GPUs() int {
	n := 0
	for _, p := range a.Plans {
		n += p.GPUCount()
	}
	return n
}

// candidate is one (session, type) option.
type candidate struct {
	gpu profiler.GPUType
	// costPerReq is dollars per request at the best SLO-feasible batch.
	costPerReq float64
	// load is the session's estimated GPU demand on this type.
	load float64
}

// Pack assigns sessions to GPU types and packs each type with the squishy
// algorithm. Every returned plan passes scheduler.Validate for its
// sessions. Sessions infeasible on every type fail with an error.
func Pack(sessions []scheduler.Session, profiles TypedProfiles, capacity Capacity,
	cfg scheduler.Config) (*Assignment, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("hetero: no GPU types")
	}
	types := make([]profiler.GPUType, 0, len(profiles))
	for t := range profiles {
		if capacity[t] < 0 {
			return nil, fmt.Errorf("hetero: negative capacity for %s", t)
		}
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })

	// Rank each session's options by cost per request.
	options := make(map[string][]candidate, len(sessions))
	for _, s := range sessions {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		var cands []candidate
		for _, t := range types {
			p, ok := profiles[t][s.ModelID]
			if !ok {
				continue
			}
			spec, err := profiler.Spec(t)
			if err != nil {
				return nil, err
			}
			maxLat := time.Duration(float64(s.SLO) / cfg.WorstCaseFactor())
			b := p.MaxBatchWithin(maxLat)
			if b == 0 {
				continue // SLO infeasible on this type
			}
			tput := p.Throughput(b)
			cands = append(cands, candidate{
				gpu:        t,
				costPerReq: spec.HourlyUSD / (3600 * tput),
				load:       s.Rate / tput,
			})
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("hetero: session %s infeasible on every GPU type", s.ID)
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].costPerReq != cands[j].costPerReq {
				return cands[i].costPerReq < cands[j].costPerReq
			}
			return cands[i].gpu < cands[j].gpu
		})
		options[s.ID] = cands
	}

	// Greedy assignment, largest loads first so they claim capacity on
	// their cheapest type before small sessions fragment it.
	order := make([]scheduler.Session, len(sessions))
	copy(order, sessions)
	sort.Slice(order, func(i, j int) bool {
		li, lj := options[order[i].ID][0].load, options[order[j].ID][0].load
		if li != lj {
			return li > lj
		}
		return order[i].ID < order[j].ID
	})
	remaining := make(map[profiler.GPUType]float64, len(types))
	for _, t := range types {
		remaining[t] = float64(capacity[t])
	}
	assign := make(map[string]profiler.GPUType, len(sessions))
	byType := make(map[profiler.GPUType][]scheduler.Session)
	for _, s := range order {
		if s.Rate == 0 {
			continue
		}
		placed := false
		for _, c := range options[s.ID] {
			if remaining[c.gpu] >= c.load {
				remaining[c.gpu] -= c.load
				assign[s.ID] = c.gpu
				byType[c.gpu] = append(byType[c.gpu], s)
				placed = true
				break
			}
		}
		if !placed {
			// Spill: feasible type with the most remaining headroom.
			best := candidate{}
			bestIdx := -1
			for i, c := range options[s.ID] {
				if bestIdx == -1 || remaining[c.gpu]-c.load > remaining[best.gpu]-best.load {
					best, bestIdx = c, i
				}
			}
			_ = bestIdx
			remaining[best.gpu] -= best.load
			assign[s.ID] = best.gpu
			byType[best.gpu] = append(byType[best.gpu], s)
		}
	}

	// Pack per type; the greedy estimates ignore packing fragmentation, so
	// a type can come out a GPU over capacity. Repair by migrating the
	// smallest session off the overflowing type to its next-best feasible
	// option and re-packing, bounded by the total session count.
	out := &Assignment{
		Plans:       make(map[profiler.GPUType]*scheduler.Plan),
		SessionType: assign,
	}
	for attempt := 0; attempt <= len(sessions)*len(types); attempt++ {
		out.Plans = make(map[profiler.GPUType]*scheduler.Plan)
		out.CostPerHour = 0
		overflow := profiler.GPUType("")
		for _, t := range types {
			group := byType[t]
			if len(group) == 0 {
				continue
			}
			plan, err := scheduler.Pack(group, profiles[t], cfg)
			if err != nil {
				return nil, fmt.Errorf("hetero: packing %s: %w", t, err)
			}
			if capacity[t] > 0 && plan.GPUCount() > capacity[t] {
				overflow = t
				break
			}
			out.Plans[t] = plan
			spec, err := profiler.Spec(t)
			if err != nil {
				return nil, err
			}
			out.CostPerHour += float64(plan.GPUCount()) * spec.HourlyUSD
		}
		if overflow == "" {
			return out, nil
		}
		moved, err := migrateSmallest(overflow, byType, options, assign)
		if err != nil {
			return nil, err
		}
		if !moved {
			return nil, fmt.Errorf("hetero: %s over capacity and no session can move", overflow)
		}
	}
	return nil, fmt.Errorf("hetero: repair did not converge")
}

// migrateSmallest moves the lowest-load session on the overflowing type to
// its next feasible type, mutating byType and assign. It reports whether a
// move happened.
func migrateSmallest(overflow profiler.GPUType, byType map[profiler.GPUType][]scheduler.Session,
	options map[string][]candidate, assign map[string]profiler.GPUType) (bool, error) {
	group := byType[overflow]
	bestIdx := -1
	bestLoad := math.Inf(1)
	var bestTarget profiler.GPUType
	for i, s := range group {
		for _, c := range options[s.ID] {
			if c.gpu == overflow {
				if c.load < bestLoad {
					// Candidate to move, if another type is feasible.
					for _, alt := range options[s.ID] {
						if alt.gpu != overflow {
							bestIdx, bestLoad, bestTarget = i, c.load, alt.gpu
							break
						}
					}
				}
				break
			}
		}
	}
	if bestIdx < 0 {
		return false, nil
	}
	s := group[bestIdx]
	byType[overflow] = append(group[:bestIdx], group[bestIdx+1:]...)
	byType[bestTarget] = append(byType[bestTarget], s)
	assign[s.ID] = bestTarget
	return true, nil
}

// HomogeneousCost returns the hourly cost of serving all sessions on a
// single GPU type (for comparison), or +Inf when any session is
// infeasible on it.
func HomogeneousCost(sessions []scheduler.Session, profiles TypedProfiles,
	gpu profiler.GPUType, cfg scheduler.Config) float64 {
	prof, ok := profiles[gpu]
	if !ok {
		return math.Inf(1)
	}
	plan, err := scheduler.Pack(sessions, prof, cfg)
	if err != nil {
		return math.Inf(1)
	}
	spec, err := profiler.Spec(gpu)
	if err != nil {
		return math.Inf(1)
	}
	return float64(plan.GPUCount()) * spec.HourlyUSD
}
