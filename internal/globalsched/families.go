package globalsched

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"time"

	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/scheduler"
)

// Prefix batching (§6.3) combines the sessions of specialized sibling
// models that share a planning SLO and a base model into one group unit,
// whose members run a shared prefix as one batch. The sessions change only
// when one is added, while their rates drift every epoch (§6.1), so every
// session belongs to a persistent (SLO, base) family, and a family
// re-derives its group only when its membership changes. An epoch then
// only sums member rates. A standalone session joins its family once, in
// AddSession. A query stage's SLO follows the latency split (§6.2), so each
// epoch a stage whose key changed moves to the family of its new key.

// familyKey is a prefix bucket: a planning SLO and a base model ID.
type familyKey struct {
	slo  time.Duration
	base string
}

// compareKeys orders buckets by base, then SLO: the order groups and
// ungrouped members are planned in.
func compareKeys(a, b familyKey) int {
	if c := cmp.Compare(a.base, b.base); c != 0 {
		return c
	}
	return cmp.Compare(a.slo, b.slo)
}

// family is the persistent prefix bucket of the sessions that share a key:
// its standalone members, then its query stages. Its group is re-derived
// when its membership changes (stale), and a derived group is never
// changed in place: backend units and placement records may hold its
// member slice.
type family struct {
	key       familyKey
	baseModel *model.Model // nil when the base is not registered
	members   []int        // indices into Scheduler.sessions, in add order
	stages    []int        // positions in the epoch's stage list, ascending

	stale   bool
	grouped bool
	group   prefixGroup
	err     error
}

// prefixGroup is a prefix group: its unit ID (also its model ID), member
// session IDs, the combined profile the packer plans it with and that
// profile's planning view, and the prefix and suffix execution profiles
// its backend unit runs.
type prefixGroup struct {
	id                      string
	members                 []string
	profile, prefix, suffix *profiler.Profile
	plan                    *profiler.Profile
}

// prefixGroupID names the prefix group of base's sessions at slo:
// "pg/<base>/<slo in ms>ms", with the fraction of a millisecond only when
// slo has one, so buckets whose SLOs share a whole millisecond stay apart.
func prefixGroupID(base string, slo time.Duration) string {
	ms := strconv.FormatFloat(float64(slo)/float64(time.Millisecond), 'f', -1, 64)
	return "pg/" + base + "/" + ms + "ms"
}

// planningSLO is the SLO a standalone session is planned against: its own
// less the planning slack, but never below half of it.
func (s *Scheduler) planningSLO(slo time.Duration) time.Duration {
	return max(slo-s.slack(), slo/2)
}

// familyAt returns the index of key's family in s.families, or where it
// would go.
func (s *Scheduler) familyAt(key familyKey) int {
	at, _ := slices.BinarySearchFunc(s.families, key, func(g *family, k familyKey) int {
		return compareKeys(g.key, k)
	})
	return at
}

// enter returns key's family, created if need be, marked stale for the
// member the caller adds to it.
func (s *Scheduler) enter(key familyKey) *family {
	f := s.familyOf[key]
	if f == nil {
		f = &family{key: key}
		f.baseModel, _ = s.modelDB.Lookup(key.base)
		if s.familyOf == nil {
			s.familyOf = make(map[familyKey]*family)
		}
		s.familyOf[key] = f
		s.families = slices.Insert(s.families, s.familyAt(key), f)
	}
	f.stale = true
	s.unitTable = nil
	return f
}

// join adds standalone session i to its family.
func (s *Scheduler) join(i int) {
	spec := s.sessions[i]
	f := s.enter(familyKey{s.planningSLO(spec.SLO), profiler.BaseOf(spec.ModelID)})
	f.members = append(f.members, i)
}

// moveStages puts each of the epoch's query stages in the family of its
// key. A stage's position is stable: every query emits one stage per node,
// in node order, and queries are only appended. A stage whose key changed
// leaves its old family, which goes once it has no members.
func (s *Scheduler) moveStages(stages []scheduler.Session) {
	for j, st := range stages {
		key := familyKey{st.SLO, profiler.BaseOf(st.ModelID)}
		if j < len(s.stageFam) {
			old := s.stageFam[j]
			if old.key == key {
				continue
			}
			k, _ := slices.BinarySearch(old.stages, j)
			old.stages = slices.Delete(old.stages, k, k+1)
			old.stale = true
			if len(old.members)+len(old.stages) == 0 {
				delete(s.familyOf, old.key)
				at := s.familyAt(old.key)
				s.families = slices.Delete(s.families, at, at+1)
			}
		} else {
			s.stageFam = append(s.stageFam, nil)
		}
		f := s.enter(key)
		k, _ := slices.BinarySearch(f.stages, j)
		f.stages = slices.Insert(f.stages, k, j)
		s.stageFam[j] = f
	}
}

// derive re-derives a stale family's group from its members, standalone
// members first, or finds that they plan as themselves: fewer than two
// members, an unregistered base, or a shared prefix shorter than half the
// base model. stages is the epoch's stage list.
func (s *Scheduler) derive(f *family, stages []scheduler.Session) {
	f.stale, f.grouped, f.err = false, false, nil
	n := len(f.members) + len(f.stages)
	if n < 2 || f.baseModel == nil {
		// Models not in the DB (synthetic tests): skip grouping.
		return
	}
	models, members := make([]string, 0, n), make([]string, 0, n)
	for _, i := range f.members {
		models, members = append(models, s.sessions[i].ModelID), append(members, s.sessions[i].ID)
	}
	for _, j := range f.stages {
		models, members = append(models, stages[j].ModelID), append(members, stages[j].ID)
	}
	prefixLen, err := s.modelDB.SharedPrefix(models)
	if err != nil {
		f.err = err
		return
	}
	// Only group when the members' distinct models all share a long enough
	// prefix (the common case: one specialized family per application); the
	// smallest worth combining is half the model.
	if prefixLen < max(f.baseModel.NumLayers()/2, 1) {
		return
	}
	suffixFrac := float64(f.baseModel.SuffixFLOPs(prefixLen)) / float64(f.baseModel.FLOPs())
	baseProfile := s.profile(f.key.base)
	if baseProfile == nil {
		baseProfile = s.profile(models[0])
	}
	comb, err := profiler.CombinedProfile(baseProfile, suffixFrac, n)
	if err != nil {
		f.err = err
		return
	}
	id := prefixGroupID(f.key.base, f.key.slo)
	comb.ModelID = id
	pre, suf := baseProfile.Split(1 - suffixFrac)
	f.group = prefixGroup{id: id, members: members, profile: comb, prefix: &pre, suffix: &suf, plan: s.planProfile(comb)}
	f.grouped = true
}

// buildSessions produces the scheduler sessions for this epoch and the
// member map for routing: the unit (group or self) ID by member session
// handle. Without prefix batching, standalone sessions come in add order
// and query stages after them; with it, each family in key order emits its
// group or its members.
func (s *Scheduler) buildSessions() ([]scheduler.Session, []string, error) {
	var stages []scheduler.Session
	for _, qs := range s.queries {
		qSessions, err := s.querySessions(qs)
		if err != nil {
			return nil, nil, err
		}
		stages = append(stages, qSessions...)
	}
	s.moveStages(stages)
	if s.groups == nil {
		s.groups = make(map[string]prefixGroup)
	}
	clear(s.groups)
	if !s.cfg.PrefixBatch {
		out := make([]scheduler.Session, 0, len(s.sessions)+len(stages))
		for i := range s.sessions {
			out = append(out, s.standalone(i))
		}
		out = append(out, stages...)
		return out, s.memberUnits(stages), nil
	}
	var out []scheduler.Session
	for _, f := range s.families {
		if f.stale {
			s.derive(f, stages)
		}
		if f.err != nil {
			return nil, nil, f.err
		}
		if !f.grouped {
			for _, i := range f.members {
				out = append(out, s.standalone(i))
			}
			for _, j := range f.stages {
				out = append(out, stages[j])
			}
			continue
		}
		var rate float64
		for _, i := range f.members {
			rate += s.rateOf(s.handles[i], s.sessions[i].ExpectedRate)
		}
		for _, j := range f.stages {
			rate += stages[j].Rate
		}
		s.groups[f.group.id] = f.group
		out = append(out, scheduler.Session{ID: f.group.id, ModelID: f.group.id, SLO: f.key.slo, Rate: rate})
	}
	return out, s.memberUnits(stages), nil
}

// standalone returns standalone session i as this epoch plans it.
func (s *Scheduler) standalone(i int) scheduler.Session {
	spec := s.sessions[i]
	return scheduler.Session{
		ID: spec.ID, ModelID: spec.ModelID, SLO: s.planningSLO(spec.SLO),
		Rate: s.rateOf(s.handles[i], spec.ExpectedRate),
	}
}

// memberUnits returns the epoch's member -> unit table: every session's
// own ID, then each grouped member's group ID. The table depends only on
// membership, so it is kept and rebuilt when a member joins or a stage
// moves; a kept table is never changed in place, since the last applied
// epoch's may still be in use.
func (s *Scheduler) memberUnits(stages []scheduler.Session) []string {
	if s.unitTable != nil && len(s.unitTable) == s.names.Len() {
		return s.unitTable
	}
	table := make([]string, s.names.Len())
	for i, spec := range s.sessions {
		table[s.handles[i]] = spec.ID
	}
	for _, st := range stages {
		h, _ := s.names.Lookup(st.ID)
		table[h] = st.ID
	}
	for _, f := range s.families {
		if !f.grouped {
			continue
		}
		for _, i := range f.members {
			table[s.handles[i]] = f.group.id
		}
		for _, j := range f.stages {
			h, _ := s.names.Lookup(stages[j].ID)
			table[h] = f.group.id
		}
	}
	s.unitTable = table
	return table
}

// ResolveProfile returns the profile model id plans and runs with: the one
// profiles holds under id or, for a specialization without its own entry,
// the profile of its source. A specialization keeps its source's structure
// and layer costs, so it shares the source's profile when both calibrate
// from one base (profiler.BaseOf) and the source is the model db registers
// under the source's ID: calibrating it would change only ModelID. It
// returns nil when neither applies. Deployments store a profile only for
// the models that need their own.
func ResolveProfile(profiles map[string]*profiler.Profile, db *model.DB, id string) *profiler.Profile {
	if p, ok := profiles[id]; ok {
		return p
	}
	m, ok := db.Lookup(id)
	if !ok {
		return nil
	}
	src := m.Source()
	if src == nil || profiler.BaseOf(m.ID) != profiler.BaseOf(src.ID) {
		return nil
	}
	if reg, ok := db.Lookup(src.ID); !ok || reg != src {
		return nil
	}
	return profiles[src.ID]
}

// profile resolves a model's base profile (ResolveProfile).
func (s *Scheduler) profile(id string) *profiler.Profile {
	return ResolveProfile(s.profiles, s.modelDB, id)
}

// profileOf resolves a model ID against prefix-group and base profiles,
// returning the RAW profile (actual execution costs) for the runtime.
func (s *Scheduler) profileOf(modelID string) (*profiler.Profile, error) {
	if g, ok := s.groups[modelID]; ok {
		return g.profile, nil
	}
	if p := s.profile(modelID); p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("globalsched: no profile for %s", modelID)
}
