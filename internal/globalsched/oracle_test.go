package globalsched

import (
	"sort"
	"time"

	"nexus/internal/profiler"
	"nexus/internal/scheduler"
	"nexus/internal/session"
)

// The pre-family grouping, kept as the test oracle: every epoch it rebuilt
// the standalone sessions, bucketed every session by (SLO, base) and
// re-derived every prefix group and the whole member -> unit table. The
// persistent families must reproduce its output exactly (FuzzPrefixFamilies).

// oracleBuildSessions produces the scheduler sessions for this epoch and the
// member map for routing: the unit (group or self) ID by member session
// handle.
func (s *Scheduler) oracleBuildSessions() ([]scheduler.Session, []string, error) {
	out := make([]scheduler.Session, 0, len(s.sessions))
	handles := append([]session.Handle(nil), s.handles...)
	slack := s.slack()
	for i, spec := range s.sessions {
		slo := spec.SLO - slack
		if slo < spec.SLO/2 {
			slo = spec.SLO / 2
		}
		out = append(out, scheduler.Session{
			ID:      spec.ID,
			ModelID: spec.ModelID,
			SLO:     slo,
			Rate:    s.rateOf(s.handles[i], spec.ExpectedRate),
		})
	}
	for _, qs := range s.queries {
		qSessions, err := s.querySessions(qs)
		if err != nil {
			return nil, nil, err
		}
		for _, sess := range qSessions {
			h, _ := s.names.Lookup(sess.ID)
			handles = append(handles, h)
		}
		out = append(out, qSessions...)
	}
	memberUnit := make([]string, s.names.Len())
	for i, sess := range out {
		memberUnit[handles[i]] = sess.ID
	}
	// Prefix grouping.
	s.groups = make(map[string]prefixGroup)
	if !s.cfg.PrefixBatch {
		return out, memberUnit, nil
	}
	grouped, err := s.oracleGroupPrefixes(out, handles, memberUnit)
	if err != nil {
		return nil, nil, err
	}
	return grouped, memberUnit, nil
}

// oracleGroupPrefixes combines sessions of specialized sibling models with equal
// SLOs into prefix-batched group sessions (§6.3). handles[i] is the handle
// of sessions[i]; memberUnit records each grouped member's group.
func (s *Scheduler) oracleGroupPrefixes(sessions []scheduler.Session, handles []session.Handle,
	memberUnit []string) ([]scheduler.Session, error) {
	// Bucket by (SLO, base family); a bucket holds indices into sessions,
	// and slot finds a key's bucket.
	type bucketKey struct {
		slo  time.Duration
		base string
	}
	type bucket struct {
		key     bucketKey
		members []int
	}
	slot := make(map[bucketKey]int)
	var buckets []bucket
	for i, sess := range sessions {
		key := bucketKey{sess.SLO, profiler.BaseOf(sess.ModelID)}
		b, ok := slot[key]
		if !ok {
			b = len(buckets)
			slot[key] = b
			buckets = append(buckets, bucket{key: key})
		}
		buckets[b].members = append(buckets[b].members, i)
	}
	sort.Slice(buckets, func(i, j int) bool {
		if buckets[i].key.base != buckets[j].key.base {
			return buckets[i].key.base < buckets[j].key.base
		}
		return buckets[i].key.slo < buckets[j].key.slo
	})
	var out []scheduler.Session
	for _, b := range buckets {
		key, members := b.key, b.members
		ungrouped := func() {
			for _, i := range members {
				out = append(out, sessions[i])
			}
		}
		if len(members) < 2 {
			ungrouped()
			continue
		}
		// Confirm a real shared prefix via the model DB.
		ids := make([]string, len(members))
		for k, i := range members {
			ids[k] = sessions[i].ModelID
		}
		baseModel, err := s.modelDB.Get(key.base)
		if err != nil {
			// Models not in the DB (synthetic tests): skip grouping.
			ungrouped()
			continue
		}
		// The smallest shared prefix worth combining is half the model.
		minShared := baseModel.NumLayers() / 2
		prefixLen, err := s.modelDB.SharedPrefix(ids)
		if err != nil {
			return nil, err
		}
		// Only group when the members' distinct models all share a long
		// enough prefix (the common case: one specialized family per
		// application).
		if prefixLen < max(minShared, 1) {
			ungrouped()
			continue
		}
		suffixFrac := float64(baseModel.SuffixFLOPs(prefixLen)) / float64(baseModel.FLOPs())
		baseProfile, ok := s.profiles[key.base]
		if !ok {
			baseProfile = s.profiles[sessions[members[0]].ModelID]
		}
		comb, err := profiler.CombinedProfile(baseProfile, suffixFrac, len(members))
		if err != nil {
			return nil, err
		}
		groupID := prefixGroupID(key.base, key.slo)
		comb.ModelID = groupID
		pre, suf := baseProfile.Split(1 - suffixFrac)
		g := prefixGroup{members: make([]string, 0, len(members)), profile: comb, prefix: &pre, suffix: &suf}
		var rate float64
		for _, i := range members {
			rate += sessions[i].Rate
			g.members = append(g.members, sessions[i].ID)
			memberUnit[handles[i]] = groupID
		}
		s.groups[groupID] = g
		out = append(out, scheduler.Session{
			ID: groupID, ModelID: groupID, SLO: key.slo, Rate: rate,
		})
	}
	return out, nil
}
