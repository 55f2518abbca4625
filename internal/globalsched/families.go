package globalsched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/scheduler"
)

// Prefix batching (§6.3) combines the sessions of specialized sibling
// models that share a planning SLO and a base model into one group unit,
// whose members run a shared prefix as one batch. The set of standalone
// sessions changes only when one is added, while their rates drift every
// epoch (§6.1), so each standalone session joins its (SLO, base) family
// once, in AddSession, and a family re-derives its group only when its
// membership changes. An epoch then only sums member rates. Query stages
// are the exception: their SLOs follow the latency split, so they are
// bucketed every epoch, after the standalone members of a family with the
// same key.

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

// prefixRun is the shared prefix of a bucket's member models, kept as
// members join: DB.SharedPrefix's answer, one member at a time. shared is
// the shortest CommonPrefixLen of a member against the first member's
// model, and distinct whether two members name different models. missing
// is the first member model that is not registered: it makes any grouped
// bucket an error, so the other fields stop changing once it is set.
type prefixRun struct {
	n        int
	first    *model.Model
	shared   int
	distinct bool
	missing  string
}

// add appends one member with model m (nil when id is not registered).
func (r *prefixRun) add(id string, m *model.Model) {
	switch {
	case r.n == 0:
		r.first = m
		if m == nil {
			r.missing = id
		} else {
			r.shared = m.NumLayers()
		}
	case r.missing != "":
	case m == nil:
		r.missing = id
	case id != r.first.ID:
		r.distinct = true
		r.shared = min(r.shared, model.CommonPrefixLen(r.first, m))
	}
	r.n++
}

// family is the persistent prefix bucket of the standalone sessions that
// share a key. Its group is re-derived when members join (stale), and a
// derived group is never changed in place: backend units and placement
// records may hold its member slice.
type family struct {
	key       familyKey
	baseModel *model.Model // nil when the base is not registered
	members   []int        // indices into Scheduler.sessions, in add order
	run       prefixRun

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

// join adds standalone session i, whose model is m (nil if unregistered),
// to its family.
func (s *Scheduler) join(i int, m *model.Model) {
	spec := s.sessions[i]
	key := familyKey{s.planningSLO(spec.SLO), profiler.BaseOf(spec.ModelID)}
	f := s.familyOf[key]
	if f == nil {
		f = &family{key: key}
		f.baseModel, _ = s.modelDB.Lookup(key.base)
		if s.familyOf == nil {
			s.familyOf = make(map[familyKey]*family)
		}
		s.familyOf[key] = f
		at, _ := slices.BinarySearchFunc(s.families, key, func(g *family, k familyKey) int {
			return compareKeys(g.key, k)
		})
		s.families = slices.Insert(s.families, at, f)
	}
	f.members = append(f.members, i)
	f.run.add(spec.ModelID, m)
	f.stale = true
	s.unitTable = nil
}

// derive re-derives a stale family's group from its members.
func (s *Scheduler) derive(f *family) {
	f.grouped, f.err = false, nil
	g, ok, err := s.groupOf(f.key, f.baseModel, f.run)
	if err != nil {
		f.err = err
	} else if ok {
		g.members = make([]string, len(f.members))
		for k, i := range f.members {
			g.members[k] = s.sessions[i].ID
		}
		f.group, f.grouped = g, true
	}
	f.stale = false
}

// groupOf derives the prefix group of a bucket whose members' models make
// up run, or reports that its members plan as themselves: fewer than two
// members, an unregistered base, or a shared prefix shorter than half the
// base model. The group's members are the caller's to fill in.
func (s *Scheduler) groupOf(key familyKey, baseModel *model.Model, run prefixRun) (prefixGroup, bool, error) {
	if run.n < 2 || baseModel == nil {
		// Models not in the DB (synthetic tests): skip grouping.
		return prefixGroup{}, false, nil
	}
	if run.missing != "" {
		_, err := s.modelDB.Get(run.missing)
		return prefixGroup{}, false, err
	}
	prefixLen := 0
	if run.distinct {
		prefixLen = run.shared
	}
	// Only group when the members' distinct models all share a long enough
	// prefix (the common case: one specialized family per application); the
	// smallest worth combining is half the model.
	if prefixLen < max(baseModel.NumLayers()/2, 1) {
		return prefixGroup{}, false, nil
	}
	suffixFrac := float64(baseModel.SuffixFLOPs(prefixLen)) / float64(baseModel.FLOPs())
	baseProfile := s.profile(key.base)
	if baseProfile == nil {
		baseProfile = s.profile(run.first.ID)
	}
	comb, err := profiler.CombinedProfile(baseProfile, suffixFrac, run.n)
	if err != nil {
		return prefixGroup{}, false, err
	}
	id := prefixGroupID(key.base, key.slo)
	comb.ModelID = id
	pre, suf := baseProfile.Split(1 - suffixFrac)
	return prefixGroup{id: id, profile: comb, prefix: &pre, suffix: &suf, plan: s.planProfile(comb)}, true, nil
}

// epochBucket is one bucket of an epoch: a standalone family (nil for a
// bucket of query stages only), the indices of the stages that join it,
// and the group ID its members route to ("" when ungrouped).
type epochBucket struct {
	key    familyKey
	fam    *family
	stages []int
	unit   string
}

// buildSessions produces the scheduler sessions for this epoch and the
// member map for routing: the unit (group or self) ID by member session
// handle. Standalone sessions come in add order and query stages after
// them; with prefix batching, each bucket in key order emits its group or
// its members.
func (s *Scheduler) buildSessions() ([]scheduler.Session, []string, error) {
	var stages []scheduler.Session
	for _, qs := range s.queries {
		qSessions, err := s.querySessions(qs)
		if err != nil {
			return nil, nil, err
		}
		stages = append(stages, qSessions...)
	}
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
		return out, s.memberUnits(nil, stages), nil
	}
	buckets := s.bucketStages(stages)
	var out []scheduler.Session
	for b := range buckets {
		bk := &buckets[b]
		g, ok, err := s.bucketGroup(bk, stages)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			if bk.fam != nil {
				for _, i := range bk.fam.members {
					out = append(out, s.standalone(i))
				}
			}
			for _, j := range bk.stages {
				out = append(out, stages[j])
			}
			continue
		}
		var rate float64
		if bk.fam != nil {
			for _, i := range bk.fam.members {
				rate += s.rateOf(s.handles[i], s.sessions[i].ExpectedRate)
			}
		}
		for _, j := range bk.stages {
			rate += stages[j].Rate
		}
		s.groups[g.id] = g
		bk.unit = g.id
		out = append(out, scheduler.Session{ID: g.id, ModelID: g.id, SLO: bk.key.slo, Rate: rate})
	}
	return out, s.memberUnits(buckets, stages), nil
}

// standalone returns standalone session i as this epoch plans it.
func (s *Scheduler) standalone(i int) scheduler.Session {
	spec := s.sessions[i]
	return scheduler.Session{
		ID: spec.ID, ModelID: spec.ModelID, SLO: s.planningSLO(spec.SLO),
		Rate: s.rateOf(s.handles[i], spec.ExpectedRate),
	}
}

// bucketStages lists the epoch's buckets in key order: every family, each
// with the stages that share its key, and the buckets of stages only.
func (s *Scheduler) bucketStages(stages []scheduler.Session) []epochBucket {
	buckets := make([]epochBucket, len(s.families), len(s.families)+len(stages))
	for k, f := range s.families {
		buckets[k] = epochBucket{key: f.key, fam: f}
	}
	if len(stages) == 0 {
		return buckets
	}
	slot := make(map[familyKey]int, len(buckets))
	for k, bk := range buckets {
		slot[bk.key] = k
	}
	for j, st := range stages {
		key := familyKey{st.SLO, profiler.BaseOf(st.ModelID)}
		k, ok := slot[key]
		if !ok {
			k = len(buckets)
			slot[key] = k
			buckets = append(buckets, epochBucket{key: key})
		}
		buckets[k].stages = append(buckets[k].stages, j)
	}
	sort.Slice(buckets, func(i, j int) bool { return compareKeys(buckets[i].key, buckets[j].key) < 0 })
	return buckets
}

// bucketGroup returns a bucket's group for this epoch: a family's own when
// no stage joins it, re-derived only if its membership changed; otherwise
// one derived for this epoch's members, standalone members first.
func (s *Scheduler) bucketGroup(bk *epochBucket, stages []scheduler.Session) (prefixGroup, bool, error) {
	f := bk.fam
	if len(bk.stages) == 0 {
		if f.stale {
			s.derive(f)
		}
		return f.group, f.grouped, f.err
	}
	var run prefixRun
	var baseModel *model.Model
	var members []string
	if f != nil {
		run, baseModel = f.run, f.baseModel
		for _, i := range f.members {
			members = append(members, s.sessions[i].ID)
		}
	} else {
		baseModel, _ = s.modelDB.Lookup(bk.key.base)
	}
	for _, j := range bk.stages {
		m, _ := s.modelDB.Lookup(stages[j].ModelID)
		run.add(stages[j].ModelID, m)
		members = append(members, stages[j].ID)
	}
	g, ok, err := s.groupOf(bk.key, baseModel, run)
	g.members = members
	return g, ok, err
}

// memberUnits returns the epoch's member -> unit table: every session's
// own ID, then, bucket by bucket in key order, each grouped member's group
// ID. Without query stages the table depends only on membership, so it is
// kept and rebuilt when a session joins; a kept table is never changed in
// place, since the last applied epoch's may still be in use.
func (s *Scheduler) memberUnits(buckets []epochBucket, stages []scheduler.Session) []string {
	if len(stages) == 0 && s.unitTable != nil && len(s.unitTable) == s.names.Len() {
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
	for _, bk := range buckets {
		if bk.unit == "" {
			continue
		}
		if bk.fam != nil {
			for _, i := range bk.fam.members {
				table[s.handles[i]] = bk.unit
			}
		}
		for _, j := range bk.stages {
			h, _ := s.names.Lookup(stages[j].ID)
			table[h] = bk.unit
		}
	}
	if len(stages) == 0 {
		s.unitTable = table
	}
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
