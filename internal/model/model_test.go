package model

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func simpleLayers(n int) []Layer {
	layers := []Layer{{Name: "input", Kind: Input, ActBytes: 100}}
	for i := 1; i < n; i++ {
		layers = append(layers, Layer{
			Name: fmt.Sprintf("l%d", i), Kind: Conv,
			FLOPs: int64(i) * 1000, ParamBytes: int64(i) * 400, ActBytes: 64,
			WeightsID: fmt.Sprintf("%s/w%d", "shared", i),
		})
	}
	return layers
}

func simpleModel(t *testing.T, id string, n int) *Model {
	t.Helper()
	m, err := New(id, "test", simpleLayers(n))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", "t", []Layer{{Kind: Input}}); err == nil {
		t.Error("empty id accepted")
	}
	if _, err := New("m", "t", nil); err == nil {
		t.Error("no layers accepted")
	}
	if _, err := New("m", "t", []Layer{{Kind: Conv}}); err == nil {
		t.Error("non-input first layer accepted")
	}
	if _, err := New("m", "t", []Layer{{Kind: Input}, {Kind: Conv, FLOPs: -1}}); err == nil {
		t.Error("negative FLOPs accepted")
	}
}

func TestAggregates(t *testing.T) {
	m := simpleModel(t, "m", 4) // layers 0..3, FLOPs 0,1000,2000,3000
	if m.FLOPs() != 6000 {
		t.Fatalf("FLOPs = %d, want 6000", m.FLOPs())
	}
	if m.ParamBytes() != 2400 {
		t.Fatalf("ParamBytes = %d, want 2400", m.ParamBytes())
	}
	if m.SuffixFLOPs(2) != 5000 {
		t.Fatalf("SuffixFLOPs(2) = %d, want 5000", m.SuffixFLOPs(2))
	}
	if m.SuffixParamBytes(3) != 1200 {
		t.Fatalf("SuffixParamBytes(3) = %d", m.SuffixParamBytes(3))
	}
}

func TestPrefixHashDeterministicAndDistinct(t *testing.T) {
	a := simpleModel(t, "a", 5)
	b := simpleModel(t, "b", 5)
	for k := 1; k <= 5; k++ {
		if a.PrefixHash(k) != b.PrefixHash(k) {
			t.Fatalf("identical structures differ at prefix %d", k)
		}
	}
	if a.PrefixHash(2) == a.PrefixHash(3) {
		t.Fatal("different prefix lengths hash equal")
	}
}

func TestPrefixHashOutOfRangePanics(t *testing.T) {
	m := simpleModel(t, "m", 3)
	for _, k := range []int{0, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PrefixHash(%d) did not panic", k)
				}
			}()
			m.PrefixHash(k)
		}()
	}
}

func TestHashIgnoresLayerName(t *testing.T) {
	a := simpleModel(t, "a", 3)
	layers := simpleLayers(3)
	layers[2].Name = "renamed"
	b := MustNew("b", "test", layers)
	if CommonPrefixLen(a, b) != 3 {
		t.Fatal("renaming a layer broke prefix sharing")
	}
}

func TestHashSensitiveToWeights(t *testing.T) {
	a := simpleModel(t, "a", 3)
	layers := simpleLayers(3)
	layers[2].WeightsID = "different"
	b := MustNew("b", "test", layers)
	if got := CommonPrefixLen(a, b); got != 2 {
		t.Fatalf("CommonPrefixLen = %d, want 2", got)
	}
}

func TestSpecialize(t *testing.T) {
	base := simpleModel(t, "base", 10)
	v, err := Specialize(base, "v1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumLayers() != base.NumLayers() {
		t.Fatal("specialization changed depth")
	}
	if got := CommonPrefixLen(base, v); got != 8 {
		t.Fatalf("CommonPrefixLen = %d, want 8", got)
	}
	// Two variants share the same prefix but not each other's suffix.
	v2, _ := Specialize(base, "v2", 2)
	if got := CommonPrefixLen(v, v2); got != 8 {
		t.Fatalf("variant-variant CommonPrefixLen = %d, want 8", got)
	}
	// Base must be untouched.
	if !strings.HasPrefix(base.Layer(9).WeightsID, "shared/") {
		t.Fatal("Specialize mutated the base model")
	}
}

func TestSpecializeValidation(t *testing.T) {
	base := simpleModel(t, "base", 4)
	if _, err := Specialize(base, "v", 0); err == nil {
		t.Error("retrain=0 accepted")
	}
	if _, err := Specialize(base, "v", 4); err == nil {
		t.Error("retrain=depth accepted")
	}
}

func TestAppendFC(t *testing.T) {
	base := simpleModel(t, "base", 4)
	v := AppendFC(base, "v", 2, 128)
	if v.NumLayers() != 6 {
		t.Fatalf("NumLayers = %d, want 6", v.NumLayers())
	}
	if got := CommonPrefixLen(base, v); got != 4 {
		t.Fatalf("CommonPrefixLen = %d, want 4", got)
	}
	wantParams := base.ParamBytes() + 2*128*128*4
	if v.ParamBytes() != wantParams {
		t.Fatalf("ParamBytes = %d, want %d", v.ParamBytes(), wantParams)
	}
}

func TestDB(t *testing.T) {
	db := NewDB()
	m := simpleModel(t, "m", 3)
	if err := db.Register(m); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(m); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if _, err := db.Get("missing"); err == nil {
		t.Fatal("Get of missing model succeeded")
	}
	got, err := db.Get("m")
	if err != nil || got != m {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d", db.Len())
	}
}

func TestPrefixGroups(t *testing.T) {
	db := NewDB()
	base := simpleModel(t, "base", 10)
	db.MustRegister(base)
	ids, err := SpecializeFamily(db, "base", 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	layers := simpleLayers(10)
	layers[1].WeightsID = "unrelated"
	other := MustNew("other", "test", layers)
	db.MustRegister(other)

	all := append([]string{"base", "other"}, ids...)
	groups, err := db.PrefixGroups(all, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(groups), groups)
	}
	var fam, single *PrefixGroup
	for i := range groups {
		if len(groups[i].ModelIDs) > 1 {
			fam = &groups[i]
		} else {
			single = &groups[i]
		}
	}
	if fam == nil || single == nil {
		t.Fatalf("unexpected grouping: %+v", groups)
	}
	if fam.PrefixLen != 9 {
		t.Fatalf("family PrefixLen = %d, want 9 (all but retrained fc)", fam.PrefixLen)
	}
	if len(fam.ModelIDs) != 4 {
		t.Fatalf("family size = %d, want 4", len(fam.ModelIDs))
	}
	if single.ModelIDs[0] != "other" {
		t.Fatalf("singleton = %v, want other", single.ModelIDs)
	}
}

func TestPrefixGroupsUnknownModel(t *testing.T) {
	db := NewDB()
	if _, err := db.PrefixGroups([]string{"ghost"}, 1); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestCatalog(t *testing.T) {
	db := Catalog()
	for _, id := range CatalogIDs() {
		m, err := db.Get(id)
		if err != nil {
			t.Fatalf("catalog missing %s: %v", id, err)
		}
		if m.FLOPs() <= 0 || m.ParamBytes() <= 0 {
			t.Errorf("%s has non-positive sizes", id)
		}
	}
	// Sanity: relative compute ordering should match the paper's Table 1.
	flops := func(id string) int64 { return db.MustGet(id).FLOPs() }
	if !(flops(LeNet5) < flops(VGG7) && flops(VGG7) < flops(ResNet50) &&
		flops(ResNet50) < flops(Inception4) && flops(Inception4) < flops(Darknet53)) {
		t.Error("catalog FLOPs ordering does not match Table 1")
	}
}

func TestCatalogSpecializationShares(t *testing.T) {
	db := Catalog()
	ids, err := SpecializeFamily(db, ResNet50, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, b := db.MustGet(ids[0]), db.MustGet(ids[1])
	want := a.NumLayers() - 2
	if got := CommonPrefixLen(a, b); got != want {
		t.Fatalf("variants share %d layers, want %d", got, want)
	}
}

// TestCatalogSharesBaseModels checks that every Catalog DB holds the same
// base models, built once per process, and that a variant registered in
// one DB stays out of the others. The parallel case builds catalogs and
// variants from concurrent goroutines (run with -race): the shared base
// models must be read-only.
func TestCatalogSharesBaseModels(t *testing.T) {
	a, b := Catalog(), Catalog()
	for _, id := range CatalogIDs() {
		if a.MustGet(id) != b.MustGet(id) {
			t.Fatalf("%s: two catalogs hold different models", id)
		}
	}
	id, err := a.Variant(ResNet50, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.Lookup(id); ok {
		t.Fatalf("%s registered in one catalog shows up in another", id)
	}
	if n := len(CatalogIDs()); a.Len() != n+1 || b.Len() != n {
		t.Fatalf("catalog sizes %d and %d, want %d and %d", a.Len(), b.Len(), n+1, n)
	}

	t.Run("concurrent", func(t *testing.T) {
		t.Parallel()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				db := Catalog()
				retrain := 1 + g%3
				ids, err := SpecializeFamily(db, ResNet50, 8, retrain)
				if err != nil {
					t.Error(err)
					return
				}
				base := db.MustGet(ResNet50)
				for _, id := range ids {
					v := db.MustGet(id)
					if got, want := CommonPrefixLen(base, v), base.NumLayers()-retrain; got != want {
						t.Errorf("%s: CommonPrefixLen with base = %d, want %d", id, got, want)
					}
					if w := v.Layer(v.NumLayers() - 1).WeightsID; !strings.HasPrefix(w, id+"/") {
						t.Errorf("%s: last layer weights %q", id, w)
					}
				}
				if db.Len() != len(CatalogIDs())+len(ids) {
					t.Errorf("catalog holds %d models, want %d", db.Len(), len(CatalogIDs())+len(ids))
				}
			}()
		}
		wg.Wait()
	})
}

// Property: CommonPrefixLen(a,b) equals a linear scan comparison, for random
// divergence points.
func TestPropertyCommonPrefix(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 2
		layers := func(div int, tag string) []Layer {
			ls := []Layer{{Kind: Input, ActBytes: 1}}
			for i := 1; i < n; i++ {
				w := fmt.Sprintf("w%d", i)
				if i >= div {
					w = tag + w
				}
				ls = append(ls, Layer{Kind: Conv, FLOPs: 10, WeightsID: w})
			}
			return ls
		}
		div := rng.Intn(n-1) + 1                 // diverge at layer index div (>=1)
		a := MustNew("a", "t", layers(n, ""))    // never diverges
		b := MustNew("b", "t", layers(div, "x")) // diverges at div
		return CommonPrefixLen(a, b) == div
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: specialization preserves FLOPs and depth, and keeps exactly
// depth-retrain shared layers.
func TestPropertySpecialize(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 3
		layers := []Layer{{Kind: Input, ActBytes: 1}}
		for i := 1; i < n; i++ {
			layers = append(layers, Layer{Kind: Conv, FLOPs: int64(rng.Intn(100) + 1), WeightsID: fmt.Sprintf("w%d", i)})
		}
		base := MustNew("base", "t", layers)
		retrain := rng.Intn(n-1) + 1
		v, err := Specialize(base, "v", retrain)
		if err != nil {
			return false
		}
		return v.FLOPs() == base.FLOPs() &&
			v.NumLayers() == base.NumLayers() &&
			CommonPrefixLen(base, v) == n-retrain
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// fromScratch returns a copy of m built from its layers, sharing nothing.
func fromScratch(t *testing.T, m *Model) *Model {
	t.Helper()
	layers := make([]Layer, m.NumLayers())
	for i := range layers {
		layers[i] = m.Layer(i)
	}
	c, err := New(m.ID, m.Task, layers)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameDigests checks that a derived model and its from-scratch copy agree
// on every prefix digest, and that the structural check, which can no
// longer lean on shared storage, still finds every layer shared.
func sameDigests(t *testing.T, got, want *Model) {
	t.Helper()
	for k := 1; k <= want.NumLayers(); k++ {
		if g, w := got.PrefixHash(k), want.PrefixHash(k); g != w {
			t.Fatalf("%s: inherited PrefixHash(%d) = %s, from scratch %s", got.ID, k, g, w)
		}
	}
	if n := CommonPrefixLen(got, want); n != want.NumLayers() {
		t.Fatalf("%s: CommonPrefixLen with its from-scratch copy = %d, want %d", got.ID, n, want.NumLayers())
	}
}

func TestInheritedDigestsMatchFromScratch(t *testing.T) {
	db := Catalog()
	for _, id := range db.IDs() {
		base := db.MustGet(id)
		n := base.NumLayers()
		for retrain := 1; retrain < n; retrain++ {
			v, err := Specialize(base, fmt.Sprintf("%s-v%d", id, retrain), retrain)
			if err != nil {
				t.Fatal(err)
			}
			sameDigests(t, v, fromScratch(t, v))
			// AppendFC on a specialized variant inherits digests that were
			// themselves partly inherited.
			a := AppendFC(v, v.ID+"-fc", 2, 128)
			sameDigests(t, a, fromScratch(t, a))
			if got, want := CommonPrefixLen(base, v), n-retrain; got != want {
				t.Fatalf("%s: CommonPrefixLen with base = %d, want %d", v.ID, got, want)
			}
			// Variants of the variant: retraining fewer layers than v
			// shares v's own suffix, retraining as many or more shares
			// only the base's layers and must point at the base.
			for _, r := range []int{1, retrain, n - 1} {
				vv, err := Specialize(v, fmt.Sprintf("%s-v%d", v.ID, r), r)
				if err != nil {
					t.Fatal(err)
				}
				sameDigests(t, vv, fromScratch(t, vv))
				if r >= retrain && vv.base != base {
					t.Fatalf("%s: shares %d layers through %s, want the base %s", vv.ID, vv.shared, vv.base.ID, id)
				}
				if got, want := CommonPrefixLen(v, vv), n-r; got != want {
					t.Fatalf("%s: CommonPrefixLen with %s = %d, want %d", vv.ID, v.ID, got, want)
				}
				if got, want := CommonPrefixLen(base, vv), n-max(r, retrain); got != want {
					t.Fatalf("%s: CommonPrefixLen with %s = %d, want %d", vv.ID, id, got, want)
				}
				a := AppendFC(vv, vv.ID+"-fc", 1, 32)
				sameDigests(t, a, fromScratch(t, a))
			}
		}
		a := AppendFC(base, id+"-fc", 3, 64)
		sameDigests(t, a, fromScratch(t, a))
	}
}

// TestSuffixCostsMatchLayerWalk: the prefix sums behind SuffixFLOPs and
// SuffixParamBytes agree with a walk over the layers, at every k, for every
// catalog model, its variants, their variants and their FC extensions.
func TestSuffixCostsMatchLayerWalk(t *testing.T) {
	check := func(m *Model) {
		t.Helper()
		for k := 0; k <= m.NumLayers()+1; k++ {
			var flops, params int64
			for i := k; i < m.NumLayers(); i++ {
				flops += m.Layer(i).FLOPs
				params += m.Layer(i).ParamBytes
			}
			if got := m.SuffixFLOPs(k); got != flops {
				t.Fatalf("%s: SuffixFLOPs(%d) = %d, layer walk %d", m.ID, k, got, flops)
			}
			if got := m.SuffixParamBytes(k); got != params {
				t.Fatalf("%s: SuffixParamBytes(%d) = %d, layer walk %d", m.ID, k, got, params)
			}
		}
	}
	db := Catalog()
	for _, id := range db.IDs() {
		base := db.MustGet(id)
		check(base)
		check(AppendFC(base, id+"-fc", 3, 64))
		check(AppendFC(base, id+"-fc0", 0, 64))
		n := base.NumLayers()
		for retrain := 1; retrain < n; retrain++ {
			v, err := Specialize(base, fmt.Sprintf("%s-v%d", id, retrain), retrain)
			if err != nil {
				t.Fatal(err)
			}
			check(v)
			check(AppendFC(v, v.ID+"-fc", 2, 128))
			for _, r := range []int{1, retrain, n - 1} {
				vv, err := Specialize(v, fmt.Sprintf("%s-v%d", v.ID, r), r)
				if err != nil {
					t.Fatal(err)
				}
				check(vv)
				check(AppendFC(vv, vv.ID+"-fc", 1, 32))
			}
		}
	}
}

// TestVariantCostsSuffixOnly checks that a variant costs memory for its
// retrained suffix, not its depth: retraining one layer of Darknet-53 (30
// layers) must cost about as much heap as retraining one of LeNet-5 (6).
func TestVariantCostsSuffixOnly(t *testing.T) {
	const n = 4000
	db := Catalog()
	perVariant := func(id string) float64 {
		base := db.MustGet(id)
		vs := make([]*Model, n)
		before := liveHeap()
		for i := range vs {
			v, err := Specialize(base, fmt.Sprintf("%s-v%d", id, 1000+i), 1)
			if err != nil {
				t.Fatal(err)
			}
			vs[i] = v
		}
		after := liveHeap()
		runtime.KeepAlive(vs)
		b := float64(after-min(after, before)) / n
		t.Logf("%s (%d layers): %.0f B per variant", id, base.NumLayers(), b)
		return b
	}
	small, large := perVariant(LeNet5), perVariant(Darknet53)
	if large > 1.5*small {
		t.Fatalf("a Darknet-53 variant costs %.0f B, more than 1.5× a LeNet-5 variant's %.0f B", large, small)
	}
}

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestConcurrentSiblingReads reads the layers of sibling variants from
// concurrent goroutines: the base's layers and costs they share must be
// read-only once Specialize returns (run with -race).
func TestConcurrentSiblingReads(t *testing.T) {
	base := Catalog().MustGet(ResNet50)
	var vs []*Model
	for k := 0; k < 8; k++ {
		v, err := Specialize(base, fmt.Sprintf("%s-v%d", base.ID, k), 1+k%3)
		if err != nil {
			t.Fatal(err)
		}
		vs = append(vs, AppendFC(v, v.ID+"-fc", 1, 64))
	}
	hashes := make([]string, len(vs))
	var wg sync.WaitGroup
	for i, v := range vs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= v.NumLayers(); k++ {
				hashes[i] = v.PrefixHash(k)
			}
			if got := CommonPrefixLen(base, v); got != base.NumLayers()-1-i%3 {
				t.Errorf("%s: CommonPrefixLen with base = %d", v.ID, got)
			}
		}()
	}
	wg.Wait()
	for i, v := range vs {
		if want := fromScratch(t, v).PrefixHash(v.NumLayers()); hashes[i] != want {
			t.Errorf("%s: concurrent PrefixHash = %s, from scratch %s", v.ID, hashes[i], want)
		}
	}
}

func TestVariantRejectsConflictingRetrain(t *testing.T) {
	db := Catalog()
	id, err := db.Variant(ResNet50, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := db.Variant(ResNet50, 7, 1); err != nil || again != id {
		t.Fatalf("re-registering %s with the same retrain = %q, %v", id, again, err)
	}
	_, err = db.Variant(ResNet50, 7, 3)
	if err == nil || !strings.Contains(err.Error(), "retrain 1, not 3") {
		t.Fatalf("conflicting retrain for %s: err = %v, want one naming 1 and 3", id, err)
	}
}

// TestVariantAllocs bounds what registering a variant in a grown DB
// allocates: its ID and the model, with no retrained layer, no WeightsID,
// no formatting, no hashing and no cost table. Finding an already
// registered variant allocates nothing.
func TestVariantAllocs(t *testing.T) {
	const runs = 1000
	db := Catalog()
	db.Grow(runs + 1) // AllocsPerRun makes one warm-up call
	k := 0
	fresh := testing.AllocsPerRun(runs, func() {
		if _, err := db.Variant(ResNet50, k, 1); err != nil {
			t.Fatal(err)
		}
		k++
	})
	if fresh > 2 {
		t.Errorf("registering a variant allocates %.1f times, want at most 2", fresh)
	}
	again := testing.AllocsPerRun(runs, func() {
		if _, err := db.Variant(ResNet50, 7, 1); err != nil {
			t.Fatal(err)
		}
	})
	if again != 0 {
		t.Errorf("finding a registered variant allocates %.1f times, want 0", again)
	}
}

// TestCommonPrefixLenAllocs checks that comparing retrained layers builds
// no WeightsID: against the base, a sibling variant and a model built from
// scratch with the variant's own WeightsIDs.
func TestCommonPrefixLenAllocs(t *testing.T) {
	db := Catalog()
	base := db.MustGet(ResNet50)
	n := base.NumLayers()
	v, err := Specialize(base, "resnet50-v1", 2)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Specialize(base, "resnet50-v2", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		other *Model
		want  int
	}{{base, n - 2}, {w, n - 2}, {fromScratch(t, v), n}} {
		got := 0
		if allocs := testing.AllocsPerRun(100, func() { got = CommonPrefixLen(v, c.other) }); allocs != 0 {
			t.Errorf("CommonPrefixLen(%s, %s) allocates %.1f times, want 0", v.ID, c.other.ID, allocs)
		}
		if got != c.want {
			t.Errorf("CommonPrefixLen(%s, %s) = %d, want %d", v.ID, c.other.ID, got, c.want)
		}
	}
}

// TestPrefixHashGolden pins the hex encoding of catalog digests, so the
// oracle the structural prefix check is tested against cannot drift.
func TestPrefixHashGolden(t *testing.T) {
	db := Catalog()
	golden := map[string]string{
		ResNet50: "30344f2dc3092357200e1cb5d434eb05ce0f0f49596ae1d82ef39321f815632d",
		LeNet5:   "ba764419f8aa74dac62d96b4bd8338788407dbe799b45c82e984d9d5d436b4a4",
	}
	for id, want := range golden {
		m := db.MustGet(id)
		if got := m.PrefixHash(m.NumLayers()); got != want {
			t.Errorf("%s PrefixHash(%d) = %s, want %s", id, m.NumLayers(), got, want)
		}
	}
}

func TestLookup(t *testing.T) {
	db := Catalog()
	if m, ok := db.Lookup(ResNet50); !ok || m.ID != ResNet50 {
		t.Fatalf("Lookup(%s) = %v, %v", ResNet50, m, ok)
	}
	if m, ok := db.Lookup("missing"); ok || m != nil {
		t.Fatalf("Lookup(missing) = %v, %v", m, ok)
	}
}
