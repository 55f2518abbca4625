// Package scheduler implements Nexus's batching-aware GPU cluster
// scheduling: squishy bin packing (§6.1, Algorithm 1), the batch-oblivious
// baseline used for comparison (§7.2), and incremental epoch re-scheduling
// (§6.1 "we extend the algorithm to be incremental across epochs").
//
// The scheduler consumes sessions — (model, latency SLO, request rate)
// triples — and batching profiles, and produces a Plan: a set of GPU nodes,
// each with the sessions it hosts, their target batch sizes, and the node's
// duty cycle. Plan validity (SLOs met in the worst case, duty cycles
// feasible, throughput covered, memory respected) is checked by Validate,
// which tests and simulations rely on.
package scheduler

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nexus/internal/profiler"
)

// Session is a stream of requests for one model under one latency SLO
// (§6.1 "Inputs"). Requests from different users and applications that
// invoke the same model with the same SLO belong to the same session.
type Session struct {
	ID      string
	ModelID string
	SLO     time.Duration
	Rate    float64 // request rate, req/s
}

// Validate checks session fields.
func (s Session) Validate() error {
	if s.ID == "" || s.ModelID == "" {
		return fmt.Errorf("scheduler: session with empty id/model (%+v)", s)
	}
	if s.SLO <= 0 {
		return fmt.Errorf("scheduler: session %s has non-positive SLO", s.ID)
	}
	if s.Rate < 0 || math.IsNaN(s.Rate) || math.IsInf(s.Rate, 0) {
		return fmt.Errorf("scheduler: session %s has invalid rate %v", s.ID, s.Rate)
	}
	return nil
}

// Alloc is one session's allocation on one GPU node.
type Alloc struct {
	SessionID string
	ModelID   string
	Batch     int     // target batch size on this node
	Rate      float64 // request rate this node serves for the session
	Share     float64 // fractional GPU share (batch-oblivious plans only)
	// Slice is the fractional-SM compute slice the session is pinned to on
	// a spatial node (0 on temporal nodes). Unlike Share it is a real
	// partition: the session runs concurrently with its co-residents on
	// dedicated SMs instead of taking turns in a duty cycle.
	Slice float64
}

// GPUPlan is the schedule of one GPU: the sessions it hosts and the duty
// cycle within which it round-robins through their batches (§4.1).
type GPUPlan struct {
	// ID names the node stably across incremental epochs, so the control
	// plane can map plan nodes onto physical backends and move as few
	// models as possible.
	ID        string
	Duty      time.Duration
	Allocs    []Alloc
	Saturated bool // a whole-GPU node created by scheduleSaturate
	// Spatial marks a node multiplexed by fractional-SM slices instead of a
	// duty cycle: Duty is 0 and every alloc carries its Slice fraction.
	Spatial bool
}

// Occupancy returns the bin-packing "fill" metric: for temporal nodes the
// fraction of the duty cycle consumed by batch executions (Algorithm 1),
// for spatial nodes the fraction of the device's SMs handed out as slices.
func (g *GPUPlan) Occupancy(profiles map[string]*profiler.Profile) (float64, error) {
	if g.Spatial {
		var sum float64
		for _, a := range g.Allocs {
			sum += a.Slice
		}
		return sum, nil
	}
	if g.Duty <= 0 {
		return 0, fmt.Errorf("scheduler: node has non-positive duty cycle %v", g.Duty)
	}
	var busy time.Duration
	for _, a := range g.Allocs {
		p, ok := profiles[a.ModelID]
		if !ok {
			return 0, fmt.Errorf("scheduler: no profile for model %s", a.ModelID)
		}
		busy += p.BatchLatency(a.Batch)
	}
	return float64(busy) / float64(g.Duty), nil
}

// MemBytes returns the memory the node's models need.
func (g *GPUPlan) MemBytes(profiles map[string]*profiler.Profile) int64 {
	var sum int64
	for _, a := range g.Allocs {
		if p, ok := profiles[a.ModelID]; ok {
			sum += p.MemBase + int64(a.Batch)*p.MemPerItem
		}
	}
	return sum
}

// Plan is a full cluster schedule.
type Plan struct {
	GPUs []GPUPlan
}

// GPUCount returns the number of GPU nodes the plan uses.
func (p *Plan) GPUCount() int { return len(p.GPUs) }

// SessionRate returns the total rate the plan serves for a session.
func (p *Plan) SessionRate(id string) float64 {
	var sum float64
	for _, g := range p.GPUs {
		for _, a := range g.Allocs {
			if a.SessionID == id {
				sum += a.Rate
			}
		}
	}
	return sum
}

// Placement selects which multiplexing axes the packer may use for
// residual (non-saturating) sessions.
type Placement int

const (
	// PlaceTemporal packs residuals into shared duty cycles only — the
	// paper's Algorithm 1 and the zero-value default.
	PlaceTemporal Placement = iota
	// PlaceSpatial pins every residual that fits one to a fractional-SM
	// compute slice; sessions no slice can serve fall back to temporal.
	PlaceSpatial
	// PlaceHybrid chooses per session: a slice when it costs less GPU than
	// the session's duty-cycle occupancy, temporal otherwise.
	PlaceHybrid
)

// String names the placement for audit records and experiment tables.
func (p Placement) String() string {
	switch p {
	case PlaceSpatial:
		return "spatial"
	case PlaceHybrid:
		return "hybrid"
	default:
		return "temporal"
	}
}

// DefaultSliceGranularity is the number of equal compute slices a GPU
// divides into when Config.SliceGranularity is unset.
const DefaultSliceGranularity = 8

// Config tunes the packing algorithms.
type Config struct {
	// GPUMemBytes caps per-node model memory; 0 disables the check.
	GPUMemBytes int64
	// SLOFactor is the worst-case multiplier for saturated nodes: a task
	// that misses a batch waits for the next one, so worst-case latency is
	// SLOFactor*ℓ(B) (§4.1 uses 2). Values below 2 are unsafe; above 2 are
	// conservative. Zero means 2.
	SLOFactor float64
	// Placement selects temporal, spatial, or hybrid packing of residual
	// sessions. The zero value keeps the paper's temporal-only behaviour.
	Placement Placement
	// SliceGranularity is the number of equal fractions a GPU's SMs divide
	// into for spatial placement (MIG-style); 0 means
	// DefaultSliceGranularity.
	SliceGranularity int
}

// WorstCaseFactor is the SLOFactor in effect: 2 when unset.
func (c Config) WorstCaseFactor() float64 {
	if c.SLOFactor == 0 {
		return 2
	}
	return c.SLOFactor
}

func (c Config) sliceGranularity() int {
	if c.SliceGranularity <= 0 {
		return DefaultSliceGranularity
	}
	return c.SliceGranularity
}

// rateEpsilon absorbs floating-point slack in throughput-coverage checks.
const rateEpsilon = 1e-6

// Validate checks that plan is a correct schedule for the sessions:
//
//  1. Each node's batch executions fit within its duty cycle.
//  2. Each alloc's worst-case latency meets its session's SLO:
//     2ℓ(B) for saturated nodes, duty+ℓ(b) for shared nodes (§4.1).
//  3. Each session's demanded rate is covered across nodes.
//  4. Node memory fits within cfg.GPUMemBytes (when set).
func Validate(plan *Plan, sessions []Session, profiles map[string]*profiler.Profile, cfg Config) error {
	byID := make(map[string]Session, len(sessions))
	for _, s := range sessions {
		byID[s.ID] = s
	}
	for gi := range plan.GPUs {
		g := &plan.GPUs[gi]
		if len(g.Allocs) == 0 {
			return fmt.Errorf("scheduler: node %d has no allocations", gi)
		}
		occ, err := g.Occupancy(profiles)
		if err != nil {
			return err
		}
		if occ > 1+1e-9 {
			return fmt.Errorf("scheduler: node %d overcommitted: occupancy %.4f", gi, occ)
		}
		if cfg.GPUMemBytes > 0 {
			if mem := g.MemBytes(profiles); mem > cfg.GPUMemBytes {
				return fmt.Errorf("scheduler: node %d uses %d bytes > capacity %d", gi, mem, cfg.GPUMemBytes)
			}
		}
		for _, a := range g.Allocs {
			s, ok := byID[a.SessionID]
			if !ok {
				return fmt.Errorf("scheduler: node %d allocates unknown session %s", gi, a.SessionID)
			}
			if a.Batch < 1 {
				return fmt.Errorf("scheduler: node %d session %s has batch %d", gi, a.SessionID, a.Batch)
			}
			p, ok := profiles[a.ModelID]
			if !ok {
				return fmt.Errorf("scheduler: no profile for model %s", a.ModelID)
			}
			if g.Spatial {
				// A pinned slice serves its session alone: worst-case wait
				// is the batch-gather window, clamped by the SLO timeout the
				// backend flushes on, so the binding constraints are that a
				// batch executes within the SLO at all (with slack for the
				// wait) and that the slice's service rate sustains the load
				// under worst-case co-residency interference.
				if a.Slice <= 0 || a.Slice > 1+1e-9 {
					return fmt.Errorf("scheduler: node %d session %s slice %v out of (0,1]", gi, a.SessionID, a.Slice)
				}
				q := p.SliceProfile(a.Slice, spatialWorstCo(a.Slice, cfg.sliceGranularity()))
				lat := q.BatchLatency(a.Batch)
				if lat >= s.SLO {
					return fmt.Errorf("scheduler: node %d session %s slice latency %v exceeds SLO %v",
						gi, a.SessionID, lat, s.SLO)
				}
				if q.Throughput(a.Batch)+rateEpsilon < a.Rate {
					return fmt.Errorf("scheduler: node %d session %s slice serves %.3f r/s < allocated %.3f",
						gi, a.SessionID, q.Throughput(a.Batch), a.Rate)
				}
				continue
			}
			var worst time.Duration
			if g.Saturated {
				worst = time.Duration(cfg.WorstCaseFactor() * float64(p.BatchLatency(a.Batch)))
			} else {
				worst = g.Duty + p.BatchLatency(a.Batch)
			}
			if worst > s.SLO {
				return fmt.Errorf("scheduler: node %d session %s worst-case %v exceeds SLO %v",
					gi, a.SessionID, worst, s.SLO)
			}
		}
	}
	for _, s := range sessions {
		if s.Rate <= 0 {
			continue
		}
		if got := plan.SessionRate(s.ID); got+rateEpsilon < s.Rate {
			return fmt.Errorf("scheduler: session %s served %.3f r/s < demanded %.3f", s.ID, got, s.Rate)
		}
	}
	return nil
}

// sortSessions returns a copy sorted by ID for deterministic iteration.
func sortSessions(sessions []Session) []Session {
	out := make([]Session, len(sessions))
	copy(out, sessions)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
