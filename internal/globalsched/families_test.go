package globalsched

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/queryopt"
	"nexus/internal/session"
	"nexus/internal/simclock"
)

// familyFixture is the model DB and profiles every FuzzPrefixFamilies
// script plans against; no scheduler writes to either.
type familyFixture struct {
	mdb      *model.DB
	profiles map[string]*profiler.Profile
}

// familyModels are the session models a script picks from: a resnet50
// family retraining one layer, its base, a variant retraining most of the
// model (too short a shared prefix to group), a variant of a variant, a
// lenet5 family, a base-less pair with profiles but no registered base,
// two resnet50 variants with profiles that are not registered (an error
// once grouped), and a model of its own.
var familyModels = []string{
	"resnet50-v0", "resnet50-v1", "resnet50-v2", "resnet50-v3",
	model.ResNet50, "resnet50-v7", "resnet50-v8",
	"lenet5-v0", "lenet5-v1",
	"ghost-v1", "ghost-v2",
	"resnet50-v90",
	model.VGGFace,
	"resnet50-v91",
}

// familySLOs are the standalone SLOs a script picks from: 53 ms plans at
// the 50 ms a one-stage 53 ms query's stage gets, 50.5 ms plans at a
// fraction of a millisecond, and 4 ms is clamped to half.
var familySLOs = []time.Duration{
	50 * time.Millisecond, 53 * time.Millisecond, 100 * time.Millisecond,
	50500 * time.Microsecond, 4 * time.Millisecond, 103 * time.Millisecond,
}

var familyQuerySLOs = []time.Duration{
	53 * time.Millisecond, 103 * time.Millisecond, 400 * time.Millisecond, 100500 * time.Microsecond,
}

// familyQuery builds query template k: one resnet50 stage (which shares a
// standalone family at a matching SLO), the traffic DAG, a two-level
// resnet50 -> lenet5 chain, a three-level chain whose last stage is the
// unregistered resnet50-v90 (thirds of the SLO, so sub-millisecond
// splits), or one base-less stage.
func familyQuery(k int, name string, slo time.Duration) *queryopt.Query {
	node := func(n, m string, kids ...*queryopt.Node) *queryopt.Node {
		nd := &queryopt.Node{Name: n, ModelID: m}
		for _, c := range kids {
			nd.Edges = append(nd.Edges, queryopt.Edge{Gamma: 1.5, Child: c})
		}
		return nd
	}
	var root *queryopt.Node
	switch k % 5 {
	case 0:
		root = node("r", "resnet50-v1")
	case 1:
		root = node("det", model.SSD, node("car", model.GoogLeNetCar), node("face", model.VGGFace))
	case 2:
		root = node("r", "resnet50-v2", node("d", "lenet5-v1"))
	case 3:
		root = node("a", "lenet5-v0", node("b", "resnet50-v3", node("c", "resnet50-v90")))
	default:
		root = node("g", "ghost-v2")
	}
	return &queryopt.Query{Name: name, SLO: slo, Root: root}
}

var newFamilyFixture = sync.OnceValues(func() (*familyFixture, error) {
	mdb := model.Catalog()
	if _, err := model.SpecializeFamily(mdb, model.ResNet50, 4, 1); err != nil {
		return nil, err
	}
	if _, err := model.SpecializeFamily(mdb, model.LeNet5, 2, 1); err != nil {
		return nil, err
	}
	r50 := mdb.MustGet(model.ResNet50)
	if _, err := mdb.Variant(model.ResNet50, 7, r50.NumLayers()-2); err != nil {
		return nil, err
	}
	v8, err := model.Specialize(mdb.MustGet("resnet50-v1"), "resnet50-v8", 3)
	if err != nil {
		return nil, err
	}
	mdb.MustRegister(v8)
	pdb, err := profiler.CatalogProfiles(mdb)
	if err != nil {
		return nil, err
	}
	profiles := make(map[string]*profiler.Profile)
	for _, id := range mdb.IDs() {
		if p, err := pdb.Get(id, profiler.GTX1080Ti); err == nil {
			profiles[id] = p
		}
	}
	// Profiles for models the DB does not hold.
	for id, like := range map[string]string{
		"ghost-v1": model.VGG7, "ghost-v2": model.VGG7,
		"resnet50-v90": model.ResNet50, "resnet50-v91": model.ResNet50,
	} {
		p := *profiles[like]
		p.ModelID = id
		profiles[id] = &p
	}
	return &familyFixture{mdb: mdb, profiles: profiles}, nil
})

// maxFamilyQueries bounds the queries one script adds: each costs a
// latency-split DP per epoch, and a few cover every bucket case.
const maxFamilyQueries = 4

// familyScript reads a fuzz script a byte at a time, 0 once it runs out.
type familyScript struct {
	b []byte
	i int
}

func (r *familyScript) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

// familyCoverage counts what a script exercised.
type familyCoverage struct {
	epochs, failed, groups, ungroupedFamilies int
	// mixed counts groups of standalone sessions and query stages.
	mixed int
}

// runFamilyScript drives a scheduler with persistent families and one with
// the oracle grouping through one script and fails t at the first epoch
// where they differ. The first byte picks the configuration; then each op
// adds a standalone session (new or reused ID), adds a query, changes the
// rates, runs an epoch, or names a session no one adds (as a frontend
// does for a request of an unknown session), which lengthens the
// member -> unit table.
func runFamilyScript(t testing.TB, script []byte) familyCoverage {
	fx, err := newFamilyFixture()
	if err != nil {
		t.Fatal(err)
	}
	r := &familyScript{b: script}
	conf := r.next()
	cfg := Config{PrefixBatch: conf%4 != 3, QueryAnalysis: conf&4 != 0}
	switch (conf >> 3) % 3 {
	case 1:
		cfg.PlanningSlack = -1
	case 2:
		cfg.PlanningSlack = 7 * time.Millisecond
	}
	newSched := func() *Scheduler {
		return New(simclock.New(), nil, nil, session.NewTable(), fx.mdb, fx.profiles, cfg)
	}
	fam, orc := newSched(), newSched()
	var cov familyCoverage
	var ids []string
	// held keeps every table and group member slice an epoch handed out,
	// with a copy, to check none is changed in place later.
	type heldSlice struct{ got, want []string }
	var held []heldSlice
	for r.i < len(r.b) {
		switch op := r.next() % 7; op {
		case 0, 1:
			spec := SessionSpec{
				ID:           fmt.Sprintf("s%d", len(ids)),
				ModelID:      familyModels[r.next()%len(familyModels)],
				SLO:          familySLOs[r.next()%len(familySLOs)],
				ExpectedRate: float64(r.next())/4 + 0.5,
			}
			if k := r.next(); op == 1 && len(ids) > 0 {
				spec.ID = ids[k%len(ids)]
			}
			hf, errF := fam.AddSession(spec)
			ho, errO := orc.AddSession(spec)
			if hf != ho || fmt.Sprint(errF) != fmt.Sprint(errO) {
				t.Fatalf("AddSession(%+v) = %d, %v; oracle %d, %v", spec, hf, errF, ho, errO)
			}
			ids = append(ids, spec.ID)
		case 2:
			k, slo := r.next(), familyQuerySLOs[r.next()%len(familyQuerySLOs)]
			if len(fam.queries) == maxFamilyQueries {
				continue
			}
			name := fmt.Sprintf("q%d", len(fam.queries))
			errF := fam.AddQuery(QuerySpec{Query: familyQuery(k, name, slo), ExpectedRate: 20})
			errO := orc.AddQuery(QuerySpec{Query: familyQuery(k, name, slo), ExpectedRate: 20})
			if fmt.Sprint(errF) != fmt.Sprint(errO) {
				t.Fatalf("AddQuery = %v, oracle %v", errF, errO)
			}
		case 3, 4:
			a, b := r.next(), r.next()
			for _, s := range []*Scheduler{fam, orc} {
				n := s.names.Len()
				s.rates = session.Fit(s.rates, session.Handle(n))
				s.observed = session.Fit(s.observed, session.Handle(n))
				for h := range s.rates {
					s.rates[h] = float64(1+(a+7*h)%13) * (1 + float64(b)/16)
					s.observed[h] = true
				}
				s.everyRates = true
			}
		case 5:
			cov.epochs++
			fam.epochs++
			orc.epochs++
			got, gotUnits, errF := fam.buildSessions()
			want, wantUnits, errO := orc.oracleBuildSessions()
			if fmt.Sprint(errF) != fmt.Sprint(errO) {
				t.Fatalf("epoch %d: error %v, oracle %v", cov.epochs, errF, errO)
			}
			if errF != nil {
				cov.failed++
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("epoch %d: sessions\n%+v\noracle\n%+v", cov.epochs, got, want)
			}
			if !slices.Equal(gotUnits, wantUnits) {
				t.Fatalf("epoch %d: member units\n%q\noracle\n%q", cov.epochs, gotUnits, wantUnits)
			}
			if len(fam.groups) != len(orc.groups) {
				t.Fatalf("epoch %d: %d groups, oracle %d", cov.epochs, len(fam.groups), len(orc.groups))
			}
			for id, w := range orc.groups {
				g, ok := fam.groups[id]
				if !ok || g.id != id || !slices.Equal(g.members, w.members) ||
					!reflect.DeepEqual(g.profile, w.profile) || !reflect.DeepEqual(g.prefix, w.prefix) ||
					!reflect.DeepEqual(g.suffix, w.suffix) || !reflect.DeepEqual(g.plan, fam.planProfile(w.profile)) {
					t.Fatalf("epoch %d: group %s = %+v, oracle %+v", cov.epochs, id, g, w)
				}
				held = append(held, heldSlice{g.members, slices.Clone(g.members)})
			}
			cov.groups += len(fam.groups)
			if errF == nil {
				held = append(held, heldSlice{gotUnits, slices.Clone(gotUnits)})
			}
			for _, f := range fam.families {
				if !f.stale && !f.grouped && f.err == nil && len(f.members) > 1 {
					cov.ungroupedFamilies++
				}
			}
			for _, g := range fam.groups {
				stage := func(id string) bool { return strings.Contains(id, "/") }
				standalone := func(id string) bool { return !stage(id) }
				if slices.ContainsFunc(g.members, stage) && slices.ContainsFunc(g.members, standalone) {
					cov.mixed++
				}
			}
		case 6:
			name := fmt.Sprintf("stray%d", fam.names.Len())
			fam.names.Intern(name)
			orc.names.Intern(name)
		}
	}
	for _, h := range held {
		if !slices.Equal(h.got, h.want) {
			t.Fatalf("a table or member list handed out was changed in place: %q, was %q", h.got, h.want)
		}
	}
	return cov
}

// FuzzPrefixFamilies checks the persistent prefix families against the
// test-only per-epoch grouping (oracle_test.go). Scripts add standalone
// sessions and queries between epochs and change rates; every epoch both
// must emit the same sessions, the same prefix-group records and the same
// member -> unit table, or fail with the same error, and nothing an epoch
// handed out may change later. The committed corpus covers single
// members, unregistered bases and members, sub-millisecond SLO splits and
// query stages that share a standalone family.
func FuzzPrefixFamilies(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			t.Skip("long scripts add nothing the short ones miss")
		}
		runFamilyScript(t, script)
	})
}

// familyCases are hand-written scripts, each exercising one case; the
// committed corpus (testdata/fuzz/FuzzPrefixFamilies) holds the same
// scripts, one file per case.
var familyCases = []struct {
	name   string
	script []byte
	check  func(familyCoverage) bool
}{
	{
		// Two resnet50 families at two SLOs, then a third member, a lone
		// lenet5 session, rates and epochs in between.
		name: "families grow between epochs",
		script: []byte{0,
			0, 0, 0, 10, 0, 0, 1, 0, 11, 0, 0, 2, 2, 12, 0, 0, 3, 2, 13, 0,
			5, 3, 4, 9, 5, 0, 6, 2, 1, 8, 0, 7, 0, 20, 0, 5, 4, 200, 3, 5},
		check: func(c familyCoverage) bool { return c.groups >= 4 && c.failed == 0 },
	},
	{
		// Two sessions of one model: nothing to share.
		name:   "one model twice",
		script: []byte{0, 0, 0, 0, 10, 0, 0, 0, 0, 11, 0, 5},
		check:  func(c familyCoverage) bool { return c.ungroupedFamilies == 1 && c.groups == 0 },
	},
	{
		// Two unregistered members: the error names the first.
		name:   "two unregistered members",
		script: []byte{0, 0, 0, 0, 10, 0, 0, 11, 0, 10, 0, 0, 13, 0, 10, 0, 5},
		check:  func(c familyCoverage) bool { return c.failed == 1 },
	},
	{
		// A name no session holds lengthens the member -> unit table.
		name:   "a stray name",
		script: []byte{0, 0, 0, 0, 10, 0, 0, 1, 0, 11, 0, 5, 6, 5},
		check:  func(c familyCoverage) bool { return c.epochs == 2 && c.groups == 2 },
	},
	{
		name:   "single members",
		script: []byte{0, 0, 0, 0, 10, 0, 0, 7, 1, 10, 0, 5, 3, 1, 1, 5},
		check:  func(c familyCoverage) bool { return c.epochs == 2 && c.groups == 0 },
	},
	{
		// ghost-v1 and ghost-v2 share a bucket whose base is not
		// registered: they plan as themselves.
		name:   "unregistered base",
		script: []byte{0, 0, 9, 0, 10, 0, 0, 10, 0, 11, 0, 5},
		check:  func(c familyCoverage) bool { return c.ungroupedFamilies == 1 && c.failed == 0 },
	},
	{
		// resnet50-v90 is not registered: its family fails to group.
		name:   "unregistered member",
		script: []byte{0, 0, 0, 0, 10, 0, 0, 11, 0, 11, 0, 5, 0, 1, 2, 10, 0, 5},
		check:  func(c familyCoverage) bool { return c.failed == 2 },
	},
	{
		// A short shared prefix: resnet50-v7 retrains all but two layers.
		name:   "prefix too short",
		script: []byte{0, 0, 0, 2, 10, 0, 0, 5, 2, 11, 0, 5},
		check:  func(c familyCoverage) bool { return c.ungroupedFamilies == 1 },
	},
	{
		// A 53 ms one-stage query on resnet50-v1 plans at 50 ms, beside
		// standalone resnet50 sessions at 53 ms: a mixed bucket. Later
		// epochs plan the stage at 47 ms (the first epoch, before any rate
		// is observed, leaves the query's SLO less the slack), beside the
		// 50 ms family.
		name: "query stage shares a standalone family",
		script: []byte{0,
			0, 0, 1, 10, 0, 0, 2, 1, 11, 0, 0, 1, 0, 12, 0, 0, 3, 0, 13, 0,
			2, 0, 0, 5, 3, 6, 6, 5, 0, 8, 0, 30, 0, 5},
		check: func(c familyCoverage) bool { return c.mixed == 3 && c.groups == 6 && c.failed == 0 },
	},
	{
		// A query stage alone at the key of a single standalone session
		// groups the pair.
		name:   "query stage completes a family",
		script: []byte{0, 0, 2, 1, 10, 0, 2, 0, 0, 5},
		check:  func(c familyCoverage) bool { return c.mixed == 1 && c.groups == 1 },
	},
	{
		// The three-level chain splits 100.5 ms (less slack) in thirds,
		// beside a 50.5 ms family; its unregistered last stage fails the
		// epoch only if it groups.
		name:   "sub-millisecond splits",
		script: []byte{0, 2, 3, 3, 0, 0, 3, 10, 0, 0, 1, 3, 11, 0, 5, 2, 2, 1, 5, 3, 9, 9, 5},
		check:  func(c familyCoverage) bool { return c.epochs == 3 },
	},
	{
		// Query analysis on (the DP split), the traffic DAG and a reused
		// session ID.
		name:   "dp split and a reused ID",
		script: []byte{4, 2, 1, 2, 0, 0, 1, 10, 1, 1, 1, 11, 0, 5, 3, 5, 5, 5, 5},
		check:  func(c familyCoverage) bool { return c.epochs == 2 },
	},
	{
		// Prefix batching off: no groups at all.
		name:   "prefix batching off",
		script: []byte{3, 0, 0, 0, 10, 0, 0, 1, 0, 11, 0, 2, 0, 0, 5},
		check:  func(c familyCoverage) bool { return c.epochs == 1 && c.groups == 0 },
	},
}

// TestPrefixFamilyCases runs the hand-written scripts through the oracle
// check and confirms each exercises its case.
func TestPrefixFamilyCases(t *testing.T) {
	for _, c := range familyCases {
		t.Run(c.name, func(t *testing.T) {
			if cov := runFamilyScript(t, c.script); !c.check(cov) {
				t.Fatalf("script ran but missed its case: %+v", cov)
			}
		})
	}
}

// TestSteadyEpochAllocs checks that, with membership unchanged, an epoch
// allocates in proportion to what changed, not to the session count: the
// bytes one drifting epoch allocates at 8,000 sessions are at most those
// at 1,000 plus a small constant. Every epoch's publish still carries
// every session, as on fleet-churn.
func TestSteadyEpochAllocs(t *testing.T) {
	perEpoch := func(sessions int) uint64 {
		e := runEpochEnv(t, sessions)
		const epochs = 8
		_, _, carried := e.sched.RoutePushStats()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range epochs {
			driftRates(e.sched, i)
			if err := e.sched.RunEpoch(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if _, _, now := e.sched.RoutePushStats(); now-carried != epochs*uint64(sessions) {
			t.Fatalf("%d sessions: publishes carried %d entries over %d epochs, want every session every epoch",
				sessions, now-carried, epochs)
		}
		return (after.TotalAlloc - before.TotalAlloc) / epochs
	}
	small, large := perEpoch(1000), perEpoch(8000)
	t.Logf("bytes per epoch: %d at 1k sessions, %d at 8k", small, large)
	const slack = 16 << 10
	if large > small+slack {
		t.Fatalf("an epoch at 8k sessions allocates %d B, at 1k %d B: more than %d B apart", large, small, slack)
	}
}

// runEpochEnv deploys n sessions in the fleet-churn shape (two prefix
// families of resnet50 variants at two SLOs) and runs the first two
// epochs, which size every reused buffer.
func runEpochEnv(tb testing.TB, n int) *env {
	tb.Helper()
	cfg := nexusConfig()
	cfg.Shards, cfg.PlanHysteresis = 2, 0.05
	e := newEnv(tb, cfg, 16)
	e.sched.GrowSessions(n)
	for i := range n {
		if _, err := e.sched.AddSession(SessionSpec{
			ID: fmt.Sprintf("s%04d", i), ModelID: fmt.Sprintf("%s-v%d", model.ResNet50, i%4),
			SLO: time.Duration(100+20*(i%2)) * time.Millisecond, ExpectedRate: 0.1,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range 2 {
		driftRates(e.sched, i)
		if err := e.sched.RunEpoch(); err != nil {
			tb.Fatal(err)
		}
	}
	if len(e.sched.groups) != 2 {
		tb.Fatalf("%d prefix groups, want 2", len(e.sched.groups))
	}
	return e
}

// driftRates sets every session's expected rate for epoch i (no traffic is
// observed, so epochs plan with it), swinging ±25% so the group units'
// planned rates, and with them every route weight, change every epoch.
// Each family's total is the same at any session count.
func driftRates(s *Scheduler, i int) {
	swing := []float64{1, 1.25, 0.75, 1.1}[i%4]
	per := 1200 / float64(len(s.sessions))
	for k := range s.sessions {
		s.sessions[k].ExpectedRate = per * swing
	}
}
