package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// PrefixHash is the SHA-256 prefix chain the structural CommonPrefixLen
// replaced, kept as the test oracle: the rolling digest of the first k
// layers (1 <= k <= NumLayers), from an all-zero state. Equal hashes mean
// the two prefixes compute the same function with the same weights.
func (m *Model) PrefixHash(k int) string {
	if k < 1 || k > m.NumLayers() {
		panic(fmt.Sprintf("model %q: PrefixHash(%d) out of range [1,%d]", m.ID, k, m.NumLayers()))
	}
	d := digests(m)[k-1]
	return hex.EncodeToString(d[:])
}

// digests returns the rolling SHA-256 after each layer of m: digest i
// covers layers 0 through i.
func digests(m *Model) [][32]byte {
	out := make([][32]byte, m.NumLayers())
	var state [32]byte
	var buf []byte
	for i := range out {
		l := m.Layer(i)
		buf = l.appendIdentity(append(buf[:0], state[:]...))
		state = sha256.Sum256(buf)
		out[i] = state
	}
	return out
}

// digestPrefixLen is CommonPrefixLen by the oracle: the longest k whose
// prefix digests agree.
func digestPrefixLen(a, b *Model) int {
	da, db := digests(a), digests(b)
	k := 0
	for k < min(len(da), len(db)) && da[k] == db[k] {
		k++
	}
	return k
}

// appendIdentity appends the layer's batching-relevant identity to buf:
// kind, FLOPs, parameter and activation sizes, and weights, with strings
// length-prefixed. Name is deliberately excluded, as in Layer.sameAs.
func (l *Layer) appendIdentity(buf []byte) []byte {
	buf = appendString(buf, string(l.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.FLOPs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.ParamBytes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.ActBytes))
	return appendString(buf, l.WeightsID)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
	return append(buf, s...)
}

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

// FuzzCommonPrefixLen checks the structural CommonPrefixLen and
// SharedPrefix against the SHA-256 digest oracle. The input is a program
// that grows a model DB from one base: new bases equal to it up to a
// random divergence (or not at all), Specialize of any model, Specialize
// of the newest model (a variant of a variant), AppendFC, and independently
// built copies of any model with at most one layer field changed, so equal
// layers meet both through shared storage and through separate copies.
func FuzzCommonPrefixLen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 1, 0, 3, 1, 1, 2, 1, 3, 4, 0, 1, 4, 2, 3, 2, 1, 5})
	f.Add([]byte{9, 0, 7, 2, 2, 4, 5, 0, 6, 1, 0, 0, 1, 3, 4, 1, 3, 7, 2, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		db := NewDB()
		var ms []*Model
		add := func(m *Model) {
			db.MustRegister(m)
			ms = append(ms, m)
		}
		pick := func() *Model { return ms[next()%len(ms)] }
		depth := 2 + next()%10
		add(MustNew("b0", "t", simpleLayers(depth)))
		for step := 0; len(prog) > 0 && step < 24; step++ {
			id := "m" + strconv.Itoa(len(ms))
			switch op := next() % 5; op {
			case 0:
				add(MustNew(id, "t", mutate(simpleLayers(2+next()%10), next(), next())))
			case 1, 2:
				src := ms[len(ms)-1]
				if op == 1 {
					src = pick()
				}
				if src.NumLayers() < 2 {
					continue
				}
				v, err := Specialize(src, id, 1+next()%(src.NumLayers()-1))
				if err != nil {
					t.Fatal(err)
				}
				add(v)
			case 3:
				add(AppendFC(pick(), id, next()%3, int64(8<<(next()%3))))
			case 4:
				src := pick()
				layers := make([]Layer, src.NumLayers())
				for i := range layers {
					layers[i] = src.Layer(i)
				}
				add(MustNew(id, "t", mutate(layers, next(), next())))
			}
		}
		ds := make([][][32]byte, len(ms))
		for i, m := range ms {
			ds[i] = digests(m)
		}
		oracle := func(i, j int) int {
			k := 0
			for k < min(len(ds[i]), len(ds[j])) && ds[i][k] == ds[j][k] {
				k++
			}
			return k
		}
		for i, a := range ms {
			for j, b := range ms {
				if got, want := CommonPrefixLen(a, b), oracle(i, j); got != want {
					t.Fatalf("CommonPrefixLen(%s, %s) = %d, digest oracle %d", a.ID, b.ID, got, want)
				}
			}
		}
		// SharedPrefix over a sample with repeats: the oracle is the
		// minimum over every pair of distinct models, 0 below two.
		idx := make([]int, 1+next()%len(ms))
		for k := range idx {
			idx[k] = next() % len(ms)
		}
		ids := make([]string, len(idx))
		want, distinct := ms[idx[0]].NumLayers(), false
		for k, i := range idx {
			ids[k] = ms[i].ID
			for _, j := range idx {
				if i != j {
					distinct = true
					want = min(want, oracle(i, j))
				}
			}
		}
		if !distinct {
			want = 0
		}
		if got, err := db.SharedPrefix(ids); err != nil || got != want {
			t.Fatalf("SharedPrefix(%v) = %d, %v; digest oracle %d", ids, got, err, want)
		}
	})
}

// mutate changes one field of layers[1+at%(len-1)] as op selects: nothing,
// the name (which sharing ignores), the weights, a size, or the kind.
func mutate(layers []Layer, at, op int) []Layer {
	if len(layers) < 2 {
		return layers
	}
	l := &layers[1+at%(len(layers)-1)]
	switch op % 7 {
	case 1:
		l.Name += "'"
	case 2:
		l.WeightsID += "'"
	case 3:
		l.FLOPs++
	case 4:
		l.ParamBytes++
	case 5:
		l.ActBytes++
	case 6:
		l.Kind = Pool
	}
	return layers
}
