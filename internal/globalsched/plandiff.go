package globalsched

import (
	"fmt"
	"sort"
	"strings"

	"nexus/internal/trace"
)

// rateChangeThreshold is the relative rate-share delta below which a
// retained allocation's rate drift is noise, not a plan change: the EWMA
// rate estimator moves every epoch, and logging every wiggle would bury the
// structural changes the diff exists to surface.
const rateChangeThreshold = 0.10

// placedAlloc is one session's allocation flattened out of a placement
// record for diffing.
type placedAlloc struct {
	node     string
	unit     string
	batch    int
	rate     float64
	slice    float64
	backends string // sorted, comma-joined replica set
}

// flattenPlacements indexes an epoch's placement records by session. A
// session packed onto several nodes yields several allocs, sorted by node.
func flattenPlacements(recs []trace.PlacementRecord) map[string][]placedAlloc {
	out := map[string][]placedAlloc{}
	for _, r := range recs {
		backends := append([]string(nil), r.Backends...)
		sort.Strings(backends)
		joined := strings.Join(backends, ",")
		for _, u := range r.Units {
			out[u.Session] = append(out[u.Session], placedAlloc{
				node: r.Node, unit: u.Unit, batch: u.Batch,
				rate: u.Rate, slice: u.Slice, backends: joined,
			})
		}
	}
	for sid := range out {
		sort.Slice(out[sid], func(i, j int) bool { return out[sid][i].node < out[sid][j].node })
	}
	return out
}

// DiffPlacements computes the structured change log between two consecutive
// epochs' placement records: sessions whose units appeared, disappeared, or
// moved between plan nodes, and retained allocations whose batch size,
// compute slice, rate share, or replica set changed. The result is sorted
// by (session, kind, node) so serialized diffs are deterministic.
func DiffPlacements(prev, cur []trace.PlacementRecord) []trace.PlanChange {
	pv, cv := flattenPlacements(prev), flattenPlacements(cur)
	sessions := make([]string, 0, len(pv)+len(cv))
	seen := map[string]bool{}
	for sid := range pv {
		sessions = append(sessions, sid)
		seen[sid] = true
	}
	for sid := range cv {
		if !seen[sid] {
			sessions = append(sessions, sid)
		}
	}
	sort.Strings(sessions)

	var changes []trace.PlanChange
	for _, sid := range sessions {
		pa, ca := pv[sid], cv[sid]
		switch {
		case len(pa) == 0:
			for _, a := range ca {
				changes = append(changes, trace.PlanChange{
					Kind: "unit-added", Session: sid, Unit: a.unit, Node: a.node,
					Detail: fmt.Sprintf("batch=%d rate=%.1f", a.batch, a.rate),
				})
			}
		case len(ca) == 0:
			for _, a := range pa {
				changes = append(changes, trace.PlanChange{
					Kind: "unit-dropped", Session: sid, Unit: a.unit, Node: a.node,
				})
			}
		default:
			changes = append(changes, diffSession(sid, pa, ca)...)
		}
	}
	sort.Slice(changes, func(i, j int) bool {
		a, b := changes[i], changes[j]
		if a.Session != b.Session {
			return a.Session < b.Session
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Node < b.Node
	})
	return changes
}

// diffSession compares one session's allocations across epochs.
func diffSession(sid string, pa, ca []placedAlloc) []trace.PlanChange {
	nodeSet := func(as []placedAlloc) string {
		nodes := make([]string, len(as))
		for i, a := range as {
			nodes[i] = a.node
		}
		return strings.Join(nodes, ",")
	}
	var changes []trace.PlanChange
	pn, cn := nodeSet(pa), nodeSet(ca)
	if pn != cn {
		changes = append(changes, trace.PlanChange{
			Kind: "session-moved", Session: sid, Unit: ca[0].unit,
			From: pn, To: cn,
		})
		return changes
	}
	// Same node set: compare each retained allocation in place.
	for i := range ca {
		p, c := pa[i], ca[i]
		if p.batch != c.batch {
			changes = append(changes, trace.PlanChange{
				Kind: "batch-changed", Session: sid, Unit: c.unit, Node: c.node,
				From: fmt.Sprintf("%d", p.batch), To: fmt.Sprintf("%d", c.batch),
			})
		}
		if p.slice != c.slice {
			changes = append(changes, trace.PlanChange{
				Kind: "slice-changed", Session: sid, Unit: c.unit, Node: c.node,
				From: fmt.Sprintf("%.3f", p.slice), To: fmt.Sprintf("%.3f", c.slice),
			})
		}
		if rel := relDelta(p.rate, c.rate); rel > rateChangeThreshold {
			changes = append(changes, trace.PlanChange{
				Kind: "rate-changed", Session: sid, Unit: c.unit, Node: c.node,
				From: fmt.Sprintf("%.1f", p.rate), To: fmt.Sprintf("%.1f", c.rate),
			})
		}
		if p.backends != c.backends {
			changes = append(changes, trace.PlanChange{
				Kind: "replicas-changed", Session: sid, Unit: c.unit, Node: c.node,
				From: p.backends, To: c.backends,
			})
		}
	}
	return changes
}

// relDelta is |a-b| relative to the larger magnitude (0 when both zero).
func relDelta(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m <= 0 {
		return 0
	}
	return d / m
}

// auditPlanDiff records the structured diff between the last audited
// placement and this epoch's, with its cause: the first audited epoch is
// "initial", an epoch following emergency repairs is "recovery", everything
// else is "periodic".
func (s *Scheduler) auditPlanDiff(nowMS float64, recs []trace.PlacementRecord) {
	cause := "periodic"
	switch {
	case s.lastAudited == nil:
		cause = "initial"
	case s.failures > s.lastAuditFailures:
		cause = "recovery"
	}
	rec := trace.PlanDiffRecord{
		Epoch: s.epochs, AtMS: nowMS, Cause: cause,
		SessionsMoved: s.lastStats.SessionsMoved,
		ShardsReplan:  s.lastShardStats.Replanned, // zero unless Partitioned
		ShardsSkipped: s.lastShardStats.Skipped,
		Changes:       DiffPlacements(s.lastAudited, recs),
	}
	s.cfg.Audit.RecordPlanDiff(rec)
	s.lastAudited = recs
	s.lastAuditFailures = s.failures
}
