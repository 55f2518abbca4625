package trace

import (
	"fmt"
	"io"
	"sort"
)

// PlacedUnit is one session allocation inside a placement record: the
// execution unit serving the session, its planned batch size and rate
// share, and — for merged duty cycles (§6.1) — the member sessions sharing
// the unit's round.
type PlacedUnit struct {
	Unit    string   `json:"unit"`
	Session string   `json:"session"`
	Batch   int      `json:"batch"`
	Rate    float64  `json:"rate"`
	Slice   float64  `json:"slice,omitempty"` // compute-slice fraction (spatial nodes)
	Members []string `json:"members,omitempty"`
}

// PlacementRecord is one plan node of an epoch's squishy-bin-packing
// output: which backends replicate the node, the node's duty cycle and
// occupancy, and the per-session allocations packed onto it.
type PlacementRecord struct {
	Epoch     int          `json:"epoch"`
	AtMS      float64      `json:"at_ms"`
	Node      string       `json:"node"`
	Backends  []string     `json:"backends,omitempty"`
	DutyMS    float64      `json:"duty_ms"`
	Occupancy float64      `json:"occupancy"`
	Saturated bool         `json:"saturated,omitempty"`
	Spatial   bool         `json:"spatial,omitempty"`
	Shard     string       `json:"shard,omitempty"`
	Units     []PlacedUnit `json:"units"`
}

// SplitRecord is one query's latency-SLO split for an epoch (§6.2): how the
// end-to-end budget was divided across the query's stages and the total
// GPU demand the split implies.
type SplitRecord struct {
	Epoch   int                `json:"epoch"`
	AtMS    float64            `json:"at_ms"`
	Query   string             `json:"query"`
	Method  string             `json:"method"` // "dp" (queryopt) or "even"
	GPUs    float64            `json:"gpus"`
	Budgets map[string]float64 `json:"budgets_ms"`
}

// DropWindowRecord is one early-drop decision (§4.3): the drop policy
// inspected a unit's queue and culled a window of requests that could no
// longer meet their deadlines.
type DropWindowRecord struct {
	AtMS    float64 `json:"at_ms"`
	Backend string  `json:"backend"`
	Unit    string  `json:"unit"`
	Window  int     `json:"window"`
	Dropped int     `json:"dropped"`
}

// ChaosRecord is one degraded-mode survival event on the chaos timeline:
// an injected fault edge (outage, partition, surge), a frontend circuit-
// breaker state transition, a routing-table lease expiry or refresh, or an
// admission shed. Together with the injector's script log these reconcile
// a chaos experiment end to end: what was injected, what the survival
// layer did about it, and when.
type ChaosRecord struct {
	AtMS     float64 `json:"at_ms"`
	Kind     string  `json:"kind"` // "outage", "partition", "surge", "straggler", "breaker", "lease", "admission"
	Frontend string  `json:"frontend,omitempty"`
	Backend  string  `json:"backend,omitempty"`
	Session  string  `json:"session,omitempty"`
	From     string  `json:"from,omitempty"`
	To       string  `json:"to,omitempty"`
}

// PlanChange is one structured difference between two consecutive epoch
// placements: a session's unit appearing, disappearing, or moving between
// nodes, or a retained allocation whose batch, slice, rate, or replica set
// changed. An epoch diff's Kind is one of "session-moved", "unit-added",
// "unit-dropped", "batch-changed", "slice-changed", "rate-changed" or
// "replicas-changed". The off-epoch record of a failure repair carries
// "replica-removed" for the dead backend and "replica-added" for its
// replacement.
type PlanChange struct {
	Kind    string `json:"kind"`
	Session string `json:"session,omitempty"`
	Unit    string `json:"unit,omitempty"`
	Node    string `json:"node,omitempty"`
	From    string `json:"from,omitempty"`
	To      string `json:"to,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

// PlanDiffRecord is the "why" log for one scheduler decision point: the
// structured diff between the previous placement and this one, plus the
// cause ("initial", "periodic", "recovery") and — under sharded planning —
// how many shards replanned versus skipped on hysteresis.
type PlanDiffRecord struct {
	Epoch         int          `json:"epoch"`
	AtMS          float64      `json:"at_ms"`
	Cause         string       `json:"cause"`
	SessionsMoved int          `json:"sessions_moved,omitempty"`
	ShardsReplan  int          `json:"shards_replanned,omitempty"`
	ShardsSkipped int          `json:"shards_skipped,omitempty"`
	Changes       []PlanChange `json:"changes,omitempty"`
}

// maxPlanDiffs bounds the plan-diff log: one record per epoch plus one per
// off-epoch recovery, so the bound is generous.
const maxPlanDiffs = 1 << 14

// maxDropWindows bounds the early-drop record list; placements and splits
// are bounded by epochs × sessions, but drop windows are data-plane events.
const maxDropWindows = 1 << 16

// maxChaos bounds the chaos timeline; admission sheds especially are
// data-plane-rate events during an overload.
const maxChaos = 1 << 16

// Audit is the control-plane audit log. Like Tracer, a nil *Audit is a
// valid no-op, so the scheduler records unconditionally.
type Audit struct {
	placements  []PlacementRecord
	splits      []SplitRecord
	dropWindows []DropWindowRecord
	dropsLost   int // drop-window records discarded once full
	chaos       []ChaosRecord
	chaosLost   int // chaos records discarded once full
	planDiffs   []PlanDiffRecord
	diffsLost   int // plan-diff records discarded once full
}

// NewAudit creates an empty audit log.
func NewAudit() *Audit { return &Audit{} }

// RecordPlacement appends one plan node's placement for an epoch.
func (a *Audit) RecordPlacement(r PlacementRecord) {
	if a == nil {
		return
	}
	a.placements = append(a.placements, r)
}

// RecordSplit appends one query's budget split for an epoch.
func (a *Audit) RecordSplit(r SplitRecord) {
	if a == nil {
		return
	}
	a.splits = append(a.splits, r)
}

// RecordDropWindow appends one early-drop window decision. The list is
// bounded; overflow is counted, not stored.
func (a *Audit) RecordDropWindow(r DropWindowRecord) {
	if a == nil {
		return
	}
	if len(a.dropWindows) >= maxDropWindows {
		a.dropsLost++
		return
	}
	a.dropWindows = append(a.dropWindows, r)
}

// RecordChaos appends one degraded-mode survival event. The list is
// bounded; overflow is counted, not stored.
func (a *Audit) RecordChaos(r ChaosRecord) {
	if a == nil {
		return
	}
	if len(a.chaos) >= maxChaos {
		a.chaosLost++
		return
	}
	a.chaos = append(a.chaos, r)
}

// RecordPlanDiff appends one scheduler decision's structured diff. The list
// is bounded; overflow is counted, not stored.
func (a *Audit) RecordPlanDiff(r PlanDiffRecord) {
	if a == nil {
		return
	}
	if len(a.planDiffs) >= maxPlanDiffs {
		a.diffsLost++
		return
	}
	a.planDiffs = append(a.planDiffs, r)
}

// PlanDiffs returns the recorded plan diffs in decision order.
func (a *Audit) PlanDiffs() []PlanDiffRecord {
	if a == nil {
		return nil
	}
	return a.planDiffs
}

// Chaos returns the recorded degraded-mode timeline in time order.
func (a *Audit) Chaos() []ChaosRecord {
	if a == nil {
		return nil
	}
	return a.chaos
}

// Placements returns the recorded placements in epoch order.
func (a *Audit) Placements() []PlacementRecord {
	if a == nil {
		return nil
	}
	return a.placements
}

// Splits returns the recorded budget splits in epoch order.
func (a *Audit) Splits() []SplitRecord {
	if a == nil {
		return nil
	}
	return a.splits
}

// DropWindows returns the recorded early-drop decisions in time order.
func (a *Audit) DropWindows() []DropWindowRecord {
	if a == nil {
		return nil
	}
	return a.dropWindows
}

// Lost counts the records each bounded audit list discarded once full.
type Lost struct {
	DropWindows int `json:"drop_windows,omitempty"`
	Chaos       int `json:"chaos,omitempty"`
	PlanDiffs   int `json:"plan_diffs,omitempty"`
}

// Lost returns the discarded-record counts.
func (a *Audit) Lost() Lost {
	if a == nil {
		return Lost{}
	}
	return Lost{DropWindows: a.dropsLost, Chaos: a.chaosLost, PlanDiffs: a.diffsLost}
}

// AddLost adds discarded-record counts, as a log reader restoring an audit
// log does.
func (a *Audit) AddLost(l Lost) {
	if a == nil {
		return
	}
	a.dropsLost += l.DropWindows
	a.chaosLost += l.Chaos
	a.diffsLost += l.PlanDiffs
}

// WriteText renders the audit log per epoch: each plan node with its duty
// cycle, occupancy and packed sessions, then the query splits, then a
// summary of early-drop activity per unit.
func (a *Audit) WriteText(w io.Writer) error {
	if a == nil {
		return nil
	}
	byEpoch := make(map[int][]PlacementRecord)
	epochs := []int{}
	for _, p := range a.placements {
		if _, ok := byEpoch[p.Epoch]; !ok {
			epochs = append(epochs, p.Epoch)
		}
		byEpoch[p.Epoch] = append(byEpoch[p.Epoch], p)
	}
	sort.Ints(epochs)
	splitsByEpoch := make(map[int][]SplitRecord)
	for _, s := range a.splits {
		splitsByEpoch[s.Epoch] = append(splitsByEpoch[s.Epoch], s)
	}
	for _, ep := range epochs {
		if _, err := fmt.Fprintf(w, "epoch %d\n", ep); err != nil {
			return err
		}
		for _, p := range byEpoch[ep] {
			sat := ""
			if p.Saturated {
				sat = " saturated"
			}
			if p.Spatial {
				sat += " spatial"
			}
			if p.Shard != "" {
				sat += " shard=" + p.Shard
			}
			if _, err := fmt.Fprintf(w, "  node %-12s duty=%6.2fms occ=%.3f backends=%v%s\n",
				p.Node, p.DutyMS, p.Occupancy, p.Backends, sat); err != nil {
				return err
			}
			for _, u := range p.Units {
				line := fmt.Sprintf("    %-10s session=%-20s batch=%-3d rate=%.1f",
					u.Unit, u.Session, u.Batch, u.Rate)
				if u.Slice > 0 {
					line += fmt.Sprintf(" slice=%.3f", u.Slice)
				}
				if len(u.Members) > 0 {
					line += fmt.Sprintf(" members=%v", u.Members)
				}
				if _, err := fmt.Fprintln(w, line); err != nil {
					return err
				}
			}
		}
		for _, s := range splitsByEpoch[ep] {
			stages := make([]string, 0, len(s.Budgets))
			for name := range s.Budgets {
				stages = append(stages, name)
			}
			sort.Strings(stages)
			parts := make([]string, len(stages))
			for i, name := range stages {
				parts[i] = fmt.Sprintf("%s=%.1fms", name, s.Budgets[name])
			}
			if _, err := fmt.Fprintf(w, "  split %-12s method=%-4s gpus=%.2f %v\n",
				s.Query, s.Method, s.GPUs, parts); err != nil {
				return err
			}
		}
	}
	if len(a.dropWindows) > 0 {
		type unitDrops struct {
			windows, dropped int
		}
		byUnit := make(map[string]*unitDrops)
		keys := []string{}
		for _, d := range a.dropWindows {
			k := d.Backend + "/" + d.Unit
			u, ok := byUnit[k]
			if !ok {
				u = &unitDrops{}
				byUnit[k] = u
				keys = append(keys, k)
			}
			u.windows++
			u.dropped += d.Dropped
		}
		sort.Strings(keys)
		if _, err := fmt.Fprintln(w, "early-drop windows"); err != nil {
			return err
		}
		for _, k := range keys {
			u := byUnit[k]
			if _, err := fmt.Fprintf(w, "  %-20s windows=%-5d dropped=%d\n", k, u.windows, u.dropped); err != nil {
				return err
			}
		}
		if a.dropsLost > 0 {
			if _, err := fmt.Fprintf(w, "  (%d drop-window records discarded: log full)\n", a.dropsLost); err != nil {
				return err
			}
		}
	}
	if len(a.planDiffs) > 0 {
		if _, err := fmt.Fprintln(w, "plan changes"); err != nil {
			return err
		}
		for _, pd := range a.planDiffs {
			if err := WritePlanDiffText(w, pd); err != nil {
				return err
			}
		}
		if a.diffsLost > 0 {
			if _, err := fmt.Fprintf(w, "  (%d plan-diff records discarded: log full)\n", a.diffsLost); err != nil {
				return err
			}
		}
	}
	if len(a.chaos) > 0 {
		if _, err := fmt.Fprintln(w, "chaos timeline"); err != nil {
			return err
		}
		for _, c := range a.chaos {
			line := fmt.Sprintf("  %9.1fms %-10s", c.AtMS, c.Kind)
			if c.Frontend != "" {
				line += " frontend=" + c.Frontend
			}
			if c.Backend != "" {
				line += " backend=" + c.Backend
			}
			if c.Session != "" {
				line += " session=" + c.Session
			}
			if c.From != "" || c.To != "" {
				line += fmt.Sprintf(" %s->%s", c.From, c.To)
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
		if a.chaosLost > 0 {
			if _, err := fmt.Fprintf(w, "  (%d chaos records discarded: log full)\n", a.chaosLost); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePlanDiffText renders one plan-diff record: the decision header
// (epoch, time, cause, shard hysteresis counts) and each structured change.
func WritePlanDiffText(w io.Writer, pd PlanDiffRecord) error {
	hdr := fmt.Sprintf("  epoch %-4d %9.1fms cause=%-9s", pd.Epoch, pd.AtMS, pd.Cause)
	if pd.SessionsMoved > 0 {
		hdr += fmt.Sprintf(" moved=%d", pd.SessionsMoved)
	}
	if pd.ShardsReplan > 0 || pd.ShardsSkipped > 0 {
		hdr += fmt.Sprintf(" shards=%d replanned/%d skipped", pd.ShardsReplan, pd.ShardsSkipped)
	}
	if len(pd.Changes) == 0 {
		hdr += " (no changes)"
	}
	if _, err := fmt.Fprintln(w, hdr); err != nil {
		return err
	}
	for _, c := range pd.Changes {
		line := fmt.Sprintf("    %-16s", c.Kind)
		if c.Session != "" {
			line += " session=" + c.Session
		}
		if c.Unit != "" {
			line += " unit=" + c.Unit
		}
		if c.Node != "" {
			line += " node=" + c.Node
		}
		if c.From != "" || c.To != "" {
			line += fmt.Sprintf(" %s->%s", c.From, c.To)
		}
		if c.Detail != "" {
			line += " (" + c.Detail + ")"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
