package scheduler

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nexus/internal/profiler"
)

// Spatial packing (ROADMAP item 3). Temporal duty cycles charge a session
// for the whole GPU while its batch runs, even when the model's kernels
// cannot fill the SMs. A spatial placement instead pins the session to a
// fractional-SM compute slice (MPS/MIG-style): the slice runs the session's
// batches back to back, concurrently with its co-residents, and the session
// only pays for the fraction it holds. For small models under tight SLOs —
// where duty cycles are short and occupancy low — a slice of 1/8th GPU
// often serves the same load a temporal plan charges half a GPU for.
//
// The planner is conservative: each candidate slice is costed with the
// profiler's worst-case co-residency interference (every other slice of
// the device occupied and running), so a plan stays valid no matter how
// the slices land on physical devices.

// spatialWorstCo returns the largest number of co-resident partitions a
// slice of the given fraction can share a device with, at the configured
// granularity: the rest of the device carved into minimum-size slices.
func spatialWorstCo(frac float64, gran int) int {
	co := int(math.Round((1 - frac) * float64(gran)))
	if co < 0 {
		co = 0
	}
	return co
}

// sliceAlloc is one residual session pinned to a compute slice.
type sliceAlloc struct {
	session Session
	profile *profiler.Profile // full-device profile
	frac    float64
	batch   int
}

// spatialSlice finds the smallest slice fraction (at granularity gran) that
// can serve the session's residual load within its SLO under worst-case
// co-residency, and the batch size it runs at. ok is false when no slice —
// including the whole device — sustains the load.
func spatialSlice(s Session, p *profiler.Profile, gran int) (frac float64, batch int, ok bool) {
	for g := 1; g <= gran; g++ {
		f := float64(g) / float64(gran)
		q := p.SliceProfile(f, spatialWorstCo(f, gran))
		b, _, err := ResidualBatch(q, s.SLO, s.Rate)
		if err != nil {
			continue // slice too slow for even batch 1; try a bigger one
		}
		// Sustainable: the slice's service rate must cover the arrival
		// rate, or the queue grows without bound. Unlike a duty-cycle
		// share, the slice serves this session alone, so the bound is the
		// raw gather time b/rate — not ResidualBatch's SLO-clamped duty.
		// That difference is the whole point: a low-rate tight-SLO session
		// whose clamped duty cannot fit ℓ(b) (temporally unsustainable,
		// forcing a dedicated GPU) still sits comfortably on a slice that
		// is idle between its sparse batches.
		gather := time.Duration(float64(b) / s.Rate * float64(time.Second))
		if q.BatchLatency(b) <= gather {
			return f, b, true
		}
	}
	return 0, 0, false
}

// temporalOccupancy estimates the duty-cycle occupancy the session's
// residual load would cost under temporal packing: ℓ(b)/duty for a
// sustainable shared allocation, 1.0 (a dedicated node) otherwise. The
// hybrid policy compares this against the slice fraction.
func temporalOccupancy(s Session, p *profiler.Profile) float64 {
	b, duty, err := ResidualBatch(p, s.SLO, s.Rate)
	if err != nil {
		return 1
	}
	lat := p.BatchLatency(b)
	if lat > duty {
		return 1
	}
	return float64(lat) / float64(duty)
}

// ScheduleSpatial consumes residual sessions the configured placement
// assigns to compute slices and first-fit-decreasing packs their slices
// onto spatial nodes. Sessions left temporal (by policy or infeasibility)
// are returned for ScheduleResidue. Under PlaceTemporal it is a no-op.
func ScheduleSpatial(residue []Session, profiles map[string]*profiler.Profile, cfg Config) ([]GPUPlan, []Session, error) {
	if cfg.Placement == PlaceTemporal {
		return nil, residue, nil
	}
	gran := cfg.sliceGranularity()
	var chosen []sliceAlloc
	var kept []Session
	for _, s := range sortSessions(residue) {
		if s.Rate <= 0 {
			kept = append(kept, s)
			continue
		}
		p, ok := profiles[s.ModelID]
		if !ok {
			return nil, nil, fmt.Errorf("scheduler: no profile for model %s (session %s)", s.ModelID, s.ID)
		}
		frac, batch, ok := spatialSlice(s, p, gran)
		if !ok {
			kept = append(kept, s)
			continue
		}
		if cfg.Placement == PlaceHybrid && frac+1e-9 >= temporalOccupancy(s, p) {
			// The slice is no cheaper than the duty-cycle share; temporal
			// packing can also merge the session with others, so prefer it.
			kept = append(kept, s)
			continue
		}
		chosen = append(chosen, sliceAlloc{session: s, profile: p, frac: frac, batch: batch})
	}
	if len(chosen) == 0 {
		return nil, kept, nil
	}
	// First-fit decreasing by slice fraction; ties break by session ID for
	// determinism.
	sort.SliceStable(chosen, func(i, j int) bool {
		if chosen[i].frac != chosen[j].frac {
			return chosen[i].frac > chosen[j].frac
		}
		return chosen[i].session.ID < chosen[j].session.ID
	})
	type bin struct {
		used float64
		mem  int64
		node GPUPlan
	}
	var bins []*bin
	for _, a := range chosen {
		mem := a.profile.MemBase + int64(a.batch)*a.profile.MemPerItem
		var target *bin
		for _, b := range bins {
			if b.used+a.frac > 1+1e-9 {
				continue
			}
			if cfg.GPUMemBytes > 0 && b.mem+mem > cfg.GPUMemBytes {
				continue
			}
			target = b
			break
		}
		if target == nil {
			target = &bin{node: GPUPlan{Spatial: true}}
			bins = append(bins, target)
		}
		target.used += a.frac
		target.mem += mem
		target.node.Allocs = append(target.node.Allocs, Alloc{
			SessionID: a.session.ID,
			ModelID:   a.session.ModelID,
			Batch:     a.batch,
			Rate:      a.session.Rate,
			Slice:     a.frac,
		})
	}
	nodes := make([]GPUPlan, 0, len(bins))
	for _, b := range bins {
		nodes = append(nodes, b.node)
	}
	return nodes, kept, nil
}
