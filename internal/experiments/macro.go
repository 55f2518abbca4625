package experiments

import (
	"fmt"
	"sync"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/globalsched"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/queryopt"
	"nexus/internal/workload"
)

func init() {
	register(Experiment{ID: "fig10", Description: "Game analysis: systems + cumulative ablation (Figure 10)", Run: figure10})
	register(Experiment{ID: "fig11", Description: "Traffic analysis: systems + cumulative ablation (Figure 11)", Run: figure11})
	register(Experiment{ID: "fig12", Description: "Traffic rush vs non-rush hour (Figure 12)", Run: figure12})
	register(Experiment{ID: "fig13", Description: "Large-scale multi-application deployment window (Figure 13)", Run: figure13})
	register(Experiment{ID: "fig14", Description: "GPU multiplexing: models and SLOs on one GPU (Figure 14)", Run: figure14})
	register(Experiment{ID: "fig16", Description: "Squishy vs batch-oblivious scheduling mixes (Figure 16)", Run: figure16})
	register(Experiment{ID: "fig17", Description: "Query analysis vs even split (Figure 17)", Run: figure17})
	register(Experiment{ID: "sec7.4", Description: "GPU efficiency vs theoretical lower bound (Section 7.4)", Run: section74})
}

// goodputProbes is the number of candidate rates the speculative goodput
// search evaluates concurrently per round (metrics.MaxGoodputK). It is a
// fixed constant — never derived from the worker count — so search results
// are identical in sequential and parallel runs.
const goodputProbes = 4

// systemCell is one (row, system, features) sweep cell.
type systemCell struct {
	name string
	sys  cluster.System
	f    cluster.Features
}

// searchGoodput finds the max rate the cell serves with >=99% goodness
// using the speculative k-probe search. Each probe builds an isolated
// fixed cluster (own clock, own rng, 10 s epochs) of gpus GPUs under the
// cell's system and features, install deploys the workload for the
// offered rate, and the probe runs 20 s of virtual time (8 s in short
// mode, where the bracket tolerance is 6% instead of 2%). Probes run
// concurrently; their executed events are accumulated into rc. A probe
// whose pool cannot host the plan fails; a build or install error is a
// misconfigured cell, and the one at the lowest probed rate is returned,
// so the error is the same at any worker count.
func searchGoodput(rc *RunContext, lo, hi float64, cell systemCell, gpus int, seed int64,
	install func(d *cluster.Deployment, rate float64) error) (float64, error) {
	horizon, tol := 20*time.Second, 0.02
	if rc.Short {
		horizon, tol = 8*time.Second, 0.06
	}
	var (
		mu       sync.Mutex
		buildErr error
		errRate  float64
	)
	eval := func(rate float64) float64 {
		d, err := cluster.New(cluster.Config{
			System: cell.sys, Features: cell.f, GPUs: gpus, Seed: seed,
			Epoch: 10 * time.Second, FixedCluster: true,
		})
		if err == nil {
			err = install(d, rate)
		}
		if err != nil {
			mu.Lock()
			if buildErr == nil || rate < errRate {
				buildErr, errRate = err, rate
			}
			mu.Unlock()
			return 1
		}
		bad, err := d.Run(horizon)
		rc.AddEvents(d.Clock.Executed())
		if err != nil {
			return 1 // the pool cannot host the plan at this rate
		}
		return bad
	}
	tput := metrics.MaxGoodputK(lo, hi, metrics.GoodputTarget, tol, goodputProbes, eval)
	return tput, buildErr
}

// ablationStep removes one more feature in a cumulative ablation.
type ablationStep struct {
	name string
	drop func(*cluster.Features)
}

// cumulativeAblation returns the baseline cells (TF Serving, Clipper, full
// Nexus) followed by one Nexus cell per step, each without every feature
// the steps so far dropped. The configs are materialized up front, so the
// cells are independent and run concurrently.
func cumulativeAblation(steps ...ablationStep) []systemCell {
	cells := []systemCell{
		{"TF Serving", cluster.TFServing, cluster.Features{}},
		{"Clipper", cluster.Clipper, cluster.Features{}},
		{"Nexus", cluster.Nexus, cluster.AllFeatures()},
	}
	f := cluster.AllFeatures()
	for _, s := range steps {
		s.drop(&f)
		cells = append(cells, systemCell{s.name, cluster.Nexus, f})
	}
	return cells
}

// --- Figure 10: game analysis ---------------------------------------------

func figure10(rc *RunContext) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "game analysis max request rate (20 games, SLO 50ms, 16 GPUs); ablation is cumulative",
		Header: []string{"System", "req/s", "vs Nexus"},
		Notes: []string{
			"paper Figure 10: TF 440, Clipper 324, Nexus 4120, -PB 3628, -SS 2489, -ED 2413, -OL 325",
			"absolute rates differ (simulated GPUs); compare ratios and ordering",
		},
	}
	cells := cumulativeAblation(
		ablationStep{"-PB", func(f *cluster.Features) { f.PrefixBatch = false }},
		ablationStep{"-SS", func(f *cluster.Features) { f.Squishy = false }},
		ablationStep{"-ED", func(f *cluster.Features) { f.EarlyDrop = false }},
		ablationStep{"-OL", func(f *cluster.Features) { f.Overlap = false }},
	)
	tputs, err := runCells("figure10", len(cells), func(i int) (float64, error) {
		return searchGoodput(rc, 20, 150000, cells[i], 16, 11, func(d *cluster.Deployment, rate float64) error {
			_, err := apps.Deploy(d, apps.Game(20, rate/7))
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	nexusTput := tputs[2]
	for i, c := range cells {
		t.AddRow(c.name, fmt.Sprintf("%.0f", tputs[i]), fmt.Sprintf("%.2f", tputs[i]/nexusTput))
	}
	return t, nil
}

// --- Figure 11 / 12: traffic analysis ---------------------------------------

// searchTraffic searches the cell's goodput on the 20-camera traffic app
// (16 GPUs, seed 7), at rush hour or not.
func searchTraffic(rc *RunContext, cell systemCell, rush bool) (float64, error) {
	return searchGoodput(rc, 5, 3000, cell, 16, 7, func(d *cluster.Deployment, rate float64) error {
		_, err := apps.Deploy(d, apps.Traffic(20, rate/20, rush))
		return err
	})
}

func figure11(rc *RunContext) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "traffic analysis max query rate (20 cameras, SLO 400ms, 16 GPUs, non-rush); ablation is cumulative",
		Header: []string{"System", "q/s", "vs Nexus"},
		Notes: []string{
			"paper Figure 11: TF 297, Clipper 227, Nexus 534, -QA 433, -SS 337, -ED 326, -OL 216",
		},
	}
	cells := cumulativeAblation(
		ablationStep{"-QA", func(f *cluster.Features) { f.QueryAnalysis = false }},
		ablationStep{"-SS", func(f *cluster.Features) { f.Squishy = false }},
		ablationStep{"-ED", func(f *cluster.Features) { f.EarlyDrop = false }},
		ablationStep{"-OL", func(f *cluster.Features) { f.Overlap = false }},
	)
	tputs, err := runCells("figure11", len(cells), func(i int) (float64, error) {
		return searchTraffic(rc, cells[i], false)
	})
	if err != nil {
		return nil, err
	}
	nexusTput := tputs[2]
	t.AddRow("TF Serving", fmt.Sprintf("%.0f", tputs[0]), "")
	t.AddRow("Clipper", fmt.Sprintf("%.0f", tputs[1]), "")
	t.AddRow("Nexus", fmt.Sprintf("%.0f", nexusTput), "1.00")
	for i := 3; i < len(cells); i++ {
		t.AddRow(cells[i].name, fmt.Sprintf("%.0f", tputs[i]), fmt.Sprintf("%.2f", tputs[i]/nexusTput))
	}
	return t, nil
}

func figure12(rc *RunContext) (*Table, error) {
	t := &Table{
		ID:     "fig12",
		Title:  "diurnal throughput variation for traffic analysis (16 GPUs)",
		Header: []string{"System", "rush hour q/s", "non-rush q/s"},
		Notes: []string{
			"paper Figure 12: rush/non-rush — TF 146/227, Clipper 61/297, Nexus w/o QA 254/433, Nexus 264/534",
		},
	}
	noQA := cluster.AllFeatures()
	noQA.QueryAnalysis = false
	systems := []systemCell{
		{"TF Serving", cluster.TFServing, cluster.Features{}},
		{"Clipper", cluster.Clipper, cluster.Features{}},
		{"Nexus w/o QA", cluster.Nexus, noQA},
		{"Nexus", cluster.Nexus, cluster.AllFeatures()},
	}
	// Cells: system x {rush, non-rush}.
	tputs, err := runCells("figure12", len(systems)*2, func(i int) (float64, error) {
		return searchTraffic(rc, systems[i/2], i%2 == 0)
	})
	if err != nil {
		return nil, err
	}
	for i, s := range systems {
		t.AddRow(s.name, fmt.Sprintf("%.0f", tputs[2*i]), fmt.Sprintf("%.0f", tputs[2*i+1]))
	}
	return t, nil
}

// --- Figure 13: large-scale deployment --------------------------------------

// figure13Size is the Figure 13 window's cluster and workload: 100 K80s
// for 1000 s at half the nominal workload unit (K80s are ~3.2x slower than
// the 1080Ti the unit was sized for), or 24 GTX 1080Tis for 200 s at a
// fifth of it in short mode.
func figure13Size(short bool) (gpus int, gpu profiler.GPUType, scale float64, window time.Duration) {
	if short {
		return 24, profiler.GTX1080Ti, 0.2, 200 * time.Second
	}
	return 100, profiler.K80, 0.5, 1000 * time.Second
}

// figure13Window runs the Figure 13 deployment window: seven applications
// with Poisson arrivals and a mid-window surge of SSD-heavy traffic. tune,
// when non-nil, adjusts the cluster config; the workload, seed and horizon
// stay fixed, so runs that tune only the control plane compare like for
// like.
func figure13Window(rc *RunContext, tune func(*cluster.Config)) (*cluster.Deployment, error) {
	gpus, gpu, scale, window := figure13Size(rc.Short)
	cfg := cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: gpus, GPU: gpu, Seed: 13,
		Epoch: 30 * time.Second, Warmup: 10 * time.Second,
	}
	if tune != nil {
		tune(&cfg)
	}
	d, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, b := range apps.All(scale) {
		if _, err := apps.Deploy(d, func(mdb *model.DB) (*apps.Spec, error) {
			s, err := b(mdb)
			if err != nil {
				return nil, err
			}
			return apps.WithPoisson(s), nil
		}); err != nil {
			return nil, err
		}
	}
	// The surge: a second camera feed comes online for the middle third.
	surgeSpec, err := apps.Traffic(10, 16*scale, false)(d.ModelDB())
	if err != nil {
		return nil, err
	}
	surgeQuery := surgeSpec.Queries[0].Spec
	surgeQuery.Query.Name = "traffic-surge"
	surgeSched := workload.Schedule{
		{Until: window / 3, Rate: 0},
		{Until: 2 * window / 3, Rate: surgeQuery.ExpectedRate},
		{Until: window * 10, Rate: 0},
	}
	surgeQuery.ExpectedRate = 0.1
	if err := d.AddQuery(surgeQuery, workload.Modulated{RateAt: surgeSched.RateAt}); err != nil {
		return nil, err
	}
	if _, err := d.Run(window); err != nil {
		return nil, err
	}
	rc.AddEvents(d.Clock.Executed())
	return d, nil
}

func figure13(rc *RunContext) (*Table, error) {
	d, err := figure13Window(rc, nil)
	if err != nil {
		return nil, err
	}
	gpus, gpuType, _, window := figure13Size(rc.Short)
	sample := 100 * time.Second
	if rc.Short {
		sample = 25 * time.Second
	}
	t := &Table{
		ID:     "fig13",
		Title:  fmt.Sprintf("deployment window: 7 apps on %d %s GPUs, Poisson arrivals with a mid-window surge", gpus, gpuType),
		Header: []string{"t", "offered req/s", "GPUs in use", "bad %"},
		Notes: []string{
			"paper Figure 13: GPU usage tracks the workload; SLO violations 0.27% overall with sporadic spikes at reconfigurations",
		},
	}
	buckets := int(window / sample)
	perSample := int(sample / time.Second)
	for i := 0; i < buckets; i++ {
		var offered, bad, good, gpusUsed float64
		for j := i * perSample; j < (i+1)*perSample; j++ {
			offered += d.Arrivals.Sum(j)
			bad += d.BadEvts.Sum(j)
			good += d.GoodEvts.Sum(j)
			gpusUsed += d.GPUsUsed.Mean(j)
		}
		badPct := 0.0
		if bad+good > 0 {
			badPct = 100 * bad / (bad + good)
		}
		t.AddRow(
			fmt.Sprintf("%ds", (i+1)*int(sample/time.Second)),
			fmt.Sprintf("%.0f", offered/sample.Seconds()),
			fmt.Sprintf("%.1f", gpusUsed/float64(perSample)),
			fmt.Sprintf("%.2f", badPct),
		)
	}
	t.AddRow("overall", "", fmt.Sprintf("%.1f", d.AvgGPUsUsed()), fmt.Sprintf("%.2f", 100*d.BadRate()))
	return t, nil
}

// --- Figure 14: GPU multiplexing ---------------------------------------------

func figure14(rc *RunContext) (*Table, error) {
	systems := []systemCell{
		{"Clipper", cluster.Clipper, cluster.Features{}},
		{"TF Serving", cluster.TFServing, cluster.Features{}},
		{"Nexus-parallel", cluster.NexusParallel, cluster.AllFeatures()},
		{"Nexus", cluster.Nexus, cluster.AllFeatures()},
	}
	t := &Table{
		ID:     "fig14",
		Title:  "GPU multiplexing on a single GPU: Inception copies (SLO 100ms), then SLO sweep (3 copies)",
		Header: []string{"Config", "Clipper", "TF Serving", "Nexus-parallel", "Nexus"},
		Notes: []string{
			"paper Figure 14: Nexus 1.4-2.1x TF Serving and 1.9-9.8x Clipper; Nexus-parallel in between",
		},
	}
	// Rows: four model counts at 100ms, then four SLOs at 3 copies. Every
	// (row, system) pair is an independent cell.
	type rowSpec struct {
		label string
		n     int
		slo   time.Duration
		seed  int64
	}
	var rows []rowSpec
	for _, n := range []int{2, 3, 4, 5} {
		rows = append(rows, rowSpec{fmt.Sprintf("%d models @100ms", n), n, 100 * time.Millisecond, 21})
	}
	for _, slo := range []time.Duration{50, 100, 150, 200} {
		rows = append(rows, rowSpec{fmt.Sprintf("3 models @%dms", slo), 3, slo * time.Millisecond, 22})
	}
	nSys := len(systems)
	tputs, err := runCells("figure14", len(rows)*nSys, func(i int) (float64, error) {
		r := rows[i/nSys]
		return searchGoodput(rc, 10, 3000, systems[i%nSys], 1, r.seed, func(d *cluster.Deployment, rate float64) error {
			// r.n independent copies of the Inception model (distinct
			// weights, so no prefix sharing applies), equal shares of the
			// offered rate.
			mdb := d.ModelDB()
			base := mdb.MustGet(model.InceptionV3)
			for c := 0; c < r.n; c++ {
				v, err := model.Specialize(base, fmt.Sprintf("%s-v%d", model.InceptionV3, 900+c), base.NumLayers()-1)
				if err != nil {
					return err
				}
				if err := mdb.Register(v); err != nil {
					return err
				}
			}
			if err := d.RefreshProfiles(); err != nil {
				return err
			}
			for c := 0; c < r.n; c++ {
				if err := d.AddSession(globalsched.SessionSpec{
					ID:      fmt.Sprintf("copy%d", c),
					ModelID: fmt.Sprintf("%s-v%d", model.InceptionV3, 900+c),
					SLO:     r.slo, ExpectedRate: rate / float64(r.n),
				}, nil); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	for ri, r := range rows {
		row := []string{r.label}
		for si := range systems {
			row = append(row, fmt.Sprintf("%.0f", tputs[ri*nSys+si]))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// --- Figure 16: squishy scheduling mixes --------------------------------------

func figure16(rc *RunContext) (*Table, error) {
	t := &Table{
		ID:     "fig16",
		Title:  "squishy vs batch-oblivious scheduling: 16 sessions on 8 GPUs across workload mixes",
		Header: []string{"Mix", "oblivious req/s", "squishy req/s", "gain %"},
		Notes: []string{
			"paper Figure 16: squishy outperforms across all mixes, up to 64% on mixed rates, ~11% lowest",
		},
	}
	// Each mix is 16 sessions: session i runs models[i*len(models)/16] at
	// an SLO of slos[i%len(slos)] ms, with an equal share of the offered
	// rate or, when skewed, its workload.SplitRate share.
	mixes := []struct {
		name   string
		models []string
		slos   []time.Duration
		skewed bool
	}{
		{"mixed SLOs (Inception)", []string{model.InceptionV3}, []time.Duration{50, 100, 150, 200}, false},
		{"mixed SLOs (ResNet)", []string{model.ResNet50}, []time.Duration{50, 100, 150, 200}, false},
		{"mixed rates (Inception)", []string{model.InceptionV3}, []time.Duration{100}, true},
		{"mixed rates (ResNet)", []string{model.ResNet50}, []time.Duration{100}, true},
		// Eight architectures; all have 2*l(1) within the tighter 50ms SLO.
		{"mixed models & SLOs", []string{
			model.InceptionV3, model.ResNet50, model.GoogLeNetCar, model.VGG7,
			model.Inception4, model.VGGFace, model.TextCRNN, model.GazeNet,
		}, []time.Duration{50, 100}, false},
	}
	// Cells: mix x {oblivious, squishy}.
	tputs, err := runCells("figure16", len(mixes)*2, func(i int) (float64, error) {
		m := mixes[i/2]
		f := cluster.AllFeatures()
		f.Squishy = i%2 == 1
		f.PrefixBatch = false // isolate the scheduling effect
		return searchGoodput(rc, 16, 60000, systemCell{sys: cluster.Nexus, f: f}, 8, 31, func(d *cluster.Deployment, rate float64) error {
			rates := workload.SplitRate(rate, 16, 0.9)
			for s := 0; s < 16; s++ {
				r := rate / 16
				if m.skewed {
					r = rates[s]
				}
				// Poisson arrivals: mixes are evaluated under bursty load,
				// where scheduling quality matters most.
				if err := d.AddSession(globalsched.SessionSpec{
					ID: fmt.Sprintf("s%d", s), ModelID: m.models[s*len(m.models)/16],
					SLO: m.slos[s%len(m.slos)] * time.Millisecond, ExpectedRate: r,
				}, workload.Poisson{Rate: r}); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	for i, m := range mixes {
		obl, sq := tputs[2*i], tputs[2*i+1]
		t.AddRow(m.name, fmt.Sprintf("%.0f", obl), fmt.Sprintf("%.0f", sq),
			fmt.Sprintf("%.0f", 100*(sq/obl-1)))
	}
	return t, nil
}

// --- Figure 17: query analysis -------------------------------------------------

func figure17(rc *RunContext) (*Table, error) {
	t := &Table{
		ID:     "fig17",
		Title:  "query analysis vs even split: SSD -> gamma x Inception on 8 GPUs",
		Header: []string{"SLO", "gamma", "even split q/s", "query analysis q/s", "gain %"},
		Notes: []string{
			"paper Figure 17: query analysis achieves 13-55% higher throughput than even splitting",
		},
	}
	type combo struct {
		slo   time.Duration
		gamma float64
	}
	var combos []combo
	for _, slo := range []time.Duration{300, 400, 500} {
		for _, gamma := range []float64{0.1, 1, 10} {
			combos = append(combos, combo{slo, gamma})
		}
	}
	// Cells: (SLO, gamma) x {even split, query analysis}.
	tputs, err := runCells("figure17", len(combos)*2, func(i int) (float64, error) {
		c := combos[i/2]
		f := cluster.AllFeatures()
		f.QueryAnalysis = i%2 == 1
		return searchGoodput(rc, 2, 2000, systemCell{sys: cluster.Nexus, f: f}, 8, 17, func(d *cluster.Deployment, rate float64) error {
			q := &queryopt.Query{
				Name: "q", SLO: c.slo * time.Millisecond,
				Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
					{Gamma: c.gamma, Child: &queryopt.Node{Name: "rec", ModelID: model.InceptionV3}},
				}},
			}
			return d.AddQuery(globalsched.QuerySpec{Query: q, ExpectedRate: rate}, nil)
		})
	})
	if err != nil {
		return nil, err
	}
	for i, c := range combos {
		even, qa := tputs[2*i], tputs[2*i+1]
		t.AddRow(fmt.Sprintf("%dms", c.slo), fmt.Sprintf("%g", c.gamma),
			fmt.Sprintf("%.0f", even), fmt.Sprintf("%.0f", qa),
			fmt.Sprintf("%.0f", 100*(qa/even-1)))
	}
	return t, nil
}

// --- Section 7.4: utilization vs lower bound ------------------------------------

func section74(rc *RunContext) (*Table, error) {
	horizon := 120 * time.Second
	if rc.Short {
		horizon = 30 * time.Second
	}
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: 16, Seed: 41, Epoch: 10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	// A controlled uniform workload of standalone sessions.
	specs := []globalsched.SessionSpec{
		{ID: "u0", ModelID: model.InceptionV3, SLO: 100 * time.Millisecond, ExpectedRate: 2500},
		{ID: "u1", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 2500},
		{ID: "u2", ModelID: model.GoogLeNetCar, SLO: 80 * time.Millisecond, ExpectedRate: 2000},
		{ID: "u3", ModelID: model.VGGFace, SLO: 200 * time.Millisecond, ExpectedRate: 600},
		{ID: "u4", ModelID: model.Darknet53, SLO: 300 * time.Millisecond, ExpectedRate: 250},
		{ID: "u5", ModelID: model.VGG7, SLO: 60 * time.Millisecond, ExpectedRate: 3000},
	}
	for _, s := range specs {
		if err := d.AddSession(s, nil); err != nil {
			return nil, err
		}
	}
	bad, err := d.Run(horizon)
	if err != nil {
		return nil, err
	}
	rc.AddEvents(d.Clock.Executed())
	// Theoretical lower bound: GPUs = sum R_i / T_i with T_i the best
	// fully-batched throughput under the SLO (§7.4's optimal assumes full
	// batching and back-to-back execution).
	mdb := model.Catalog()
	pdb, err := profiler.CatalogProfiles(mdb)
	if err != nil {
		return nil, err
	}
	var lower float64
	for _, s := range specs {
		p := pdb.MustGet(s.ModelID, profiler.GTX1080Ti)
		_, tput := p.SaturateBatch(s.SLO)
		lower += s.ExpectedRate / tput
	}
	used := d.AvgGPUsUsed()
	t := &Table{
		ID:     "sec7.4",
		Title:  "GPU efficiency vs theoretical lower bound (uniform workload, 16 GPUs)",
		Header: []string{"Metric", "Value"},
		Notes: []string{
			"paper §7.4: Nexus used 11.7 GPUs vs a 9.8-GPU lower bound (84% efficiency) with bad rate < 1%",
		},
	}
	t.AddRow("bad rate", fmt.Sprintf("%.2f%%", 100*bad))
	t.AddRow("GPUs used (avg)", fmt.Sprintf("%.1f", used))
	t.AddRow("lower bound", fmt.Sprintf("%.1f", lower))
	t.AddRow("efficiency", fmt.Sprintf("%.0f%%", 100*lower/used))
	return t, nil
}
