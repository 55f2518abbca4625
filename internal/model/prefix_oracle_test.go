package model

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// PrefixGroup is a set of models that share their first PrefixLen layers.
type PrefixGroup struct {
	PrefixLen int
	ModelIDs  []string // sorted
}

// PrefixGroups is the greedy grouping SharedPrefix replaced, kept as the
// test oracle: it partitions the given model IDs into maximal groups of
// models sharing a common prefix of at least minShared layers. Models with
// no sufficiently-shared partner form singleton groups with PrefixLen equal
// to their own depth. Groups are returned in a deterministic order.
func (db *DB) PrefixGroups(ids []string, minShared int) ([]PrefixGroup, error) {
	minShared = max(minShared, 1)
	models := make([]*Model, len(ids))
	for i, id := range ids {
		m, err := db.Get(id)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	type group struct {
		prefixLen int
		members   []*Model
	}
	var groups []*group
	sort.Slice(models, func(i, j int) bool { return models[i].ID < models[j].ID })
	for _, m := range models {
		best := -1
		bestLCP := 0
		for gi, g := range groups {
			lcp := min(CommonPrefixLen(g.members[0], m), g.prefixLen)
			if lcp >= minShared && lcp > bestLCP {
				best, bestLCP = gi, lcp
			}
		}
		if best >= 0 {
			g := groups[best]
			g.members = append(g.members, m)
			g.prefixLen = min(g.prefixLen, bestLCP)
		} else {
			groups = append(groups, &group{prefixLen: m.NumLayers(), members: []*Model{m}})
		}
	}
	out := make([]PrefixGroup, len(groups))
	for i, g := range groups {
		pg := PrefixGroup{PrefixLen: g.prefixLen}
		for _, m := range g.members {
			pg.ModelIDs = append(pg.ModelIDs, m.ID)
		}
		sort.Strings(pg.ModelIDs)
		out[i] = pg
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ModelIDs[0] < out[j].ModelIDs[0] })
	return out, nil
}

func dedup(ids []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// TestSharedPrefixMatchesGreedyGroups: over random model families —
// variants, variants of variants, AppendFC copies, mixed bases, duplicate
// IDs and single distinct IDs — SharedPrefix groups exactly the buckets the
// greedy PrefixGroups puts in one group of two or more models, with the
// same prefix length, whatever the member order.
func TestSharedPrefixMatchesGreedyGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		db := NewDB()
		var all []string
		bases := 1 + rng.Intn(3)
		for b := 0; b < bases; b++ {
			layers := simpleLayers(6 + rng.Intn(6))
			if b > 0 {
				// A different base diverges at a random layer.
				layers[1+rng.Intn(len(layers)-1)].WeightsID = fmt.Sprintf("base%d", b)
			}
			m := MustNew(fmt.Sprintf("b%d", b), "test", layers)
			db.MustRegister(m)
			all = append(all, m.ID)
		}
		for v := 0; v < 2+rng.Intn(6); v++ {
			src := db.MustGet(all[rng.Intn(len(all))])
			id := fmt.Sprintf("x%d", v)
			var m *Model
			if rng.Intn(4) == 0 {
				m = AppendFC(src, id, 1+rng.Intn(2), 16)
			} else {
				var err error
				if m, err = Specialize(src, id, 1+rng.Intn(src.NumLayers()-1)); err != nil {
					t.Fatal(err)
				}
			}
			db.MustRegister(m)
			all = append(all, id)
		}
		ids := make([]string, 1+rng.Intn(len(all)))
		for i := range ids {
			ids[i] = all[rng.Intn(len(all))]
		}
		if rng.Intn(5) == 0 {
			ids = []string{ids[0], ids[0]} // one distinct ID, duplicated
		}
		minShared := rng.Intn(8)

		pgs, err := db.PrefixGroups(dedup(ids), minShared)
		if err != nil {
			t.Fatal(err)
		}
		wantGroup := len(pgs) == 1 && len(pgs[0].ModelIDs) >= 2
		for shuffle := 0; shuffle < 3; shuffle++ {
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			got, err := db.SharedPrefix(ids)
			if err != nil {
				t.Fatal(err)
			}
			if group := got >= max(minShared, 1); group != wantGroup {
				t.Fatalf("trial %d: ids %v minShared %d: SharedPrefix %d groups=%v, oracle %+v",
					trial, ids, minShared, got, group, pgs)
			}
			if wantGroup && got != pgs[0].PrefixLen {
				t.Fatalf("trial %d: ids %v: SharedPrefix %d, oracle prefix %d", trial, ids, got, pgs[0].PrefixLen)
			}
		}
	}
}

func TestSharedPrefixUnknownModel(t *testing.T) {
	db := NewDB()
	db.MustRegister(simpleModel(t, "base", 4))
	for _, ids := range [][]string{{"ghost"}, {"base", "ghost"}} {
		if _, err := db.SharedPrefix(ids); err == nil {
			t.Fatalf("%v: unknown model accepted", ids)
		}
	}
}
