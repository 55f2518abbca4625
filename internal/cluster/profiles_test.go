package cluster_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/model"
	"nexus/internal/profiler"
)

// TestVariantsShareSourceProfile checks that a deployment gives each of
// GameSLO's variants its source's profile, not a copy, and that the shared
// profile is what calibrating the variant would give but for ModelID. A
// variant calibrated from another base, or specializing a model this
// deployment did not profile, still gets its own profile.
func TestVariantsShareSourceProfile(t *testing.T) {
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: 4, Seed: 1, Epoch: time.Hour, FixedCluster: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := apps.Deploy(d, apps.GameSLO(4, 2000, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	mdb := d.ModelDB()
	for _, s := range spec.Sessions {
		v := mdb.MustGet(s.Spec.ModelID)
		src := v.Source()
		if src == nil {
			t.Fatalf("%s: not a specialization", v.ID)
		}
		p := d.Profile(v.ID)
		if p == nil || p != d.Profile(src.ID) {
			t.Fatalf("%s: profile %p, want its source %s's %p", v.ID, p, src.ID, d.Profile(src.ID))
		}
		want, err := profiler.Calibrate(v, p.GPU)
		if err != nil {
			t.Fatal(err)
		}
		got := *p
		got.ModelID = want.ModelID
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("%s: shared profile %+v, calibrated %+v", v.ID, got, *want)
		}
	}

	// Calibrated from inception_v3 while specializing resnet50, and
	// specializing a resnet50 this deployment never registered: a twin of
	// the registered one, since every catalog shares that very model.
	other, err := model.Specialize(mdb.MustGet(model.ResNet50), "inception_v3-v900", 1)
	if err != nil {
		t.Fatal(err)
	}
	twin := model.AppendFC(mdb.MustGet(model.ResNet50), model.ResNet50, 0, 0)
	stranger, err := model.Specialize(twin, "resnet50-v900", 1)
	if err != nil {
		t.Fatal(err)
	}
	mdb.MustRegister(other)
	mdb.MustRegister(stranger)
	if err := d.RefreshProfiles(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []*model.Model{other, stranger} {
		p := d.Profile(v.ID)
		if p == nil || p == d.Profile(v.Source().ID) {
			t.Fatalf("%s: profile %p, want its own, not %s's", v.ID, p, v.Source().ID)
		}
		want, err := profiler.Calibrate(v, p.GPU)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("%s: profile %+v, calibrated %+v", v.ID, *p, *want)
		}
	}
}

// TestConcurrentDeploymentsShareCatalog builds deployments and their
// variants from concurrent goroutines (run with -race). Every deployment
// holds the catalog's shared base models, which must stay read-only, and
// only its own variants.
func TestConcurrentDeploymentsShareCatalog(t *testing.T) {
	t.Parallel()
	const n = 4
	dbs := make([]*model.DB, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := cluster.New(cluster.Config{
				System: cluster.Nexus, Features: cluster.AllFeatures(),
				GPUs: 4, Seed: int64(i), Epoch: time.Hour, FixedCluster: true,
			})
			if err != nil {
				errs[i] = err
				return
			}
			_, errs[i] = apps.Deploy(d, apps.GameSLO(1+i, 2000, 50*time.Millisecond))
			dbs[i] = d.ModelDB()
		}()
	}
	wg.Wait()
	for i, db := range dbs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for _, id := range model.CatalogIDs() {
			if db.MustGet(id) != dbs[0].MustGet(id) {
				t.Fatalf("deployment %d: %s is not the shared catalog model", i, id)
			}
		}
		// GameSLO(g) registers two variants per game.
		if want := len(model.CatalogIDs()) + 2*(1+i); db.Len() != want {
			t.Fatalf("deployment %d holds %d models, want %d", i, db.Len(), want)
		}
	}
}
