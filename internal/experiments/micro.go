package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"nexus/internal/backend"
	"nexus/internal/gpusim"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/queryopt"
	"nexus/internal/runner"
	"nexus/internal/scheduler"
	"nexus/internal/simclock"
	"nexus/internal/workload"
)

func init() {
	register(Experiment{ID: "table1", Description: "DNN execution latency and cost per 1000 invocations (Table 1)", Run: table1})
	register(Experiment{ID: "table2", Description: "Squishy bin packing worked example (Table 2 / Figure 2)", Run: table2})
	register(Experiment{ID: "fig4", Description: "Latency split plans vs fan-out gamma (Figures 3-4)", Run: figure4})
	register(Experiment{ID: "fig5", Description: "Lazy dropping bad rate vs alpha (Figure 5)", Run: figure5})
	register(Experiment{ID: "fig9", Description: "Early vs lazy drop max throughput vs alpha (Figure 9)", Run: figure9})
	register(Experiment{ID: "fig15", Description: "Prefix batching throughput and memory (Figure 15)", Run: figure15})
}

// --- Table 1 -------------------------------------------------------------

func table1(*RunContext) (*Table, error) {
	mdb := model.Catalog()
	pdb, err := profiler.CatalogProfiles(mdb)
	if err != nil {
		return nil, err
	}
	specs := profiler.Specs()
	t := &Table{
		ID:     "table1",
		Title:  "DNN execution latencies and estimated costs per 1000 invocations",
		Header: []string{"Model", "CPU lat", "GPU lat (V100)", "CPU cost ($)", "TPU cost ($)", "GPU cost ($)"},
		Notes:  []string{"costs assume back-to-back execution at the device's best batch size (Table 1's peak-rate lower bound)"},
	}
	for _, id := range []string{model.LeNet5, model.VGG7, model.ResNet50, model.Inception4, model.Darknet53} {
		cpuLat, err := profiler.CPULatency(id)
		if err != nil {
			return nil, err
		}
		p := pdb.MustGet(id, profiler.V100)
		t.AddRow(id,
			cpuLat.String(),
			p.BatchLatency(1).String(),
			fmt.Sprintf("%.4f", profiler.CostPer1000(p, specs[profiler.CPUAVX512])),
			fmt.Sprintf("%.4f", profiler.CostPer1000(p, specs[profiler.TPUv2])),
			fmt.Sprintf("%.4f", profiler.CostPer1000(p, specs[profiler.V100])),
		)
	}
	return t, nil
}

// --- Table 2 / Figure 2 --------------------------------------------------

// PointsFromKnots builds a measured latency table by linear interpolation
// between (batch, latency) knots, anchored at a pseudo-knot (0, beta0).
func PointsFromKnots(beta0 time.Duration, knots map[int]time.Duration, max int) []time.Duration {
	pts := make([]time.Duration, max)
	prevB, prevL := 0, beta0
	for b := 1; b <= max; b++ {
		nextB, nextL := -1, time.Duration(0)
		for kb, kl := range knots {
			if kb >= b && (nextB == -1 || kb < nextB) {
				nextB, nextL = kb, kl
			}
		}
		if nextB == -1 {
			pts[b-1] = pts[b-2] + (pts[b-2] - pts[b-3])
			continue
		}
		if l, ok := knots[b]; ok {
			pts[b-1] = l
			prevB, prevL = b, l
			continue
		}
		frac := float64(b-prevB) / float64(nextB-prevB)
		pts[b-1] = prevL + time.Duration(frac*float64(nextL-prevL))
	}
	return pts
}

// Table2Profiles returns the batching profiles of the paper's Table 2.
func Table2Profiles() (map[string]*profiler.Profile, error) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	base := func(id string) *profiler.Profile {
		return &profiler.Profile{ModelID: id, GPU: profiler.GTX1080Ti, Alpha: time.Millisecond, Beta: time.Millisecond, MaxBatch: 16}
	}
	out := map[string]*profiler.Profile{
		"A": base("A").WithPoints(PointsFromKnots(ms(40), map[int]time.Duration{4: ms(50), 8: ms(75), 16: ms(100)}, 16)),
		"B": base("B").WithPoints(PointsFromKnots(ms(30), map[int]time.Duration{4: ms(50), 8: ms(90), 16: ms(125)}, 16)),
		"C": base("C").WithPoints(PointsFromKnots(ms(40), map[int]time.Duration{4: ms(60), 8: ms(95), 16: ms(125)}, 16)),
	}
	for _, p := range out {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func table2(*RunContext) (*Table, error) {
	profiles, err := Table2Profiles()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table2",
		Title:  "squishy bin packing on the Table 2 example (SLOs 200/250/250 ms)",
		Header: []string{"Scenario", "Rates (A,B,C)", "GPUs", "Assignment"},
	}
	scenarios := []struct {
		name       string
		ra, rb, rc float64
	}{
		{"saturate", 480, 256, 128},
		{"residual", 64, 32, 32},
	}
	for _, sc := range scenarios {
		sessions := []scheduler.Session{
			{ID: "sA", ModelID: "A", SLO: 200 * time.Millisecond, Rate: sc.ra},
			{ID: "sB", ModelID: "B", SLO: 250 * time.Millisecond, Rate: sc.rb},
			{ID: "sC", ModelID: "C", SLO: 250 * time.Millisecond, Rate: sc.rc},
		}
		plan, err := scheduler.Pack(sessions, profiles, scheduler.Config{})
		if err != nil {
			return nil, err
		}
		if err := scheduler.Validate(plan, sessions, profiles, scheduler.Config{}); err != nil {
			return nil, err
		}
		var desc []string
		for _, g := range plan.GPUs {
			var parts []string
			for _, a := range g.Allocs {
				parts = append(parts, fmt.Sprintf("%s@b%d", a.ModelID, a.Batch))
			}
			kind := "shared"
			if g.Saturated {
				kind = "dedicated"
			}
			desc = append(desc, fmt.Sprintf("[%s %s duty=%v]", kind, joinComma(parts), g.Duty))
		}
		t.AddRow(sc.name,
			fmt.Sprintf("%.0f,%.0f,%.0f", sc.ra, sc.rb, sc.rc),
			fmt.Sprintf("%d", plan.GPUCount()),
			joinComma(desc))
	}
	t.Notes = append(t.Notes, "paper: residual workload packs A(b=8)+B(b=4) on one GPU at 125ms duty; C alone")
	return t, nil
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}

// --- Figure 3/4 -----------------------------------------------------------

func figure4(*RunContext) (*Table, error) {
	tputX := map[int]float64{40: 200, 50: 250, 60: 300}
	tputY := map[int]float64{40: 300, 50: 400, 60: 500}
	t := &Table{
		ID:     "fig4",
		Title:  "average pipeline throughput for three latency splits of a 100ms budget",
		Header: []string{"Split (X,Y) ms", "gamma=0.1", "gamma=1", "gamma=10"},
		Notes:  []string{"paper Figure 4: 192.3/142.9/40.0; 235.3/153.8/34.5; 272.7/150.0/27.3 — no universal best split"},
	}
	for _, split := range [][2]int{{40, 60}, {50, 50}, {60, 40}} {
		row := []string{fmt.Sprintf("%d,%d", split[0], split[1])}
		for _, gamma := range []float64{0.1, 1, 10} {
			avg := queryopt.PipelineAvgThroughput(tputX[split[0]], tputY[split[1]], gamma)
			row = append(row, fmt.Sprintf("%.1f", avg))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// --- Figure 5 / Figure 9 ---------------------------------------------------

// fig5Profile builds the §4.3 synthetic profile: SLO 100ms, optimal
// single-GPU throughput 500 r/s at batch 25 (2ℓ(25)=100ms), so
// β = 50ms - 25α.
func fig5Profile(alphaMs float64) *profiler.Profile {
	alpha := time.Duration(alphaMs * float64(time.Millisecond))
	beta := 50*time.Millisecond - 25*alpha
	return &profiler.Profile{
		ModelID: fmt.Sprintf("synthetic-a%.1f", alphaMs), GPU: profiler.GTX1080Ti,
		Alpha: alpha, Beta: beta, MaxBatch: 64,
		MemBase: 1 << 30, MemPerItem: 1 << 20,
	}
}

// dropPolicyBadRate offers proc's arrivals to one GPU running profile p
// under the given policy, with target as the scheduler-assigned batch size
// (early drop's window), and returns the bad rate. Each call builds an
// isolated clock/device/backend, so cells invoke it concurrently.
func dropPolicyBadRate(rc *RunContext, policy backend.DropPolicy, p *profiler.Profile, proc workload.Process,
	horizon time.Duration, seed int64, target int) float64 {
	clock := simclock.New()
	dev := gpusim.New(clock, "g", profiler.GTX1080Ti, gpusim.Exclusive)
	var good, miss, drop int
	be := backend.New("b", clock, dev, backend.Config{Policy: policy, Overlap: true},
		func(r backend.Request, outcome backend.Outcome, at time.Duration) {
			switch {
			case outcome.Bad():
				drop++
			case at > r.Deadline:
				miss++
			default:
				good++
			}
		})
	if err := be.Configure([]backend.Unit{{ID: "u", Profile: p, TargetBatch: target}}); err != nil {
		panic(err)
	}
	clock.RunUntil(2 * time.Second) // model load
	rng := rand.New(rand.NewSource(seed))
	workload.Start(clock, rng, "s", 100*time.Millisecond, proc, clock.Now()+horizon,
		func(r workload.Request) { _ = be.Enqueue("u", r) })
	clock.Run()
	rc.AddEvents(clock.Executed())
	total := good + miss + drop
	if total == 0 {
		return 0
	}
	return float64(miss+drop) / float64(total)
}

func figure5(rc *RunContext) (*Table, error) {
	horizon := 60 * time.Second
	if rc.Short {
		horizon = 15 * time.Second
	}
	t := &Table{
		ID:     "fig5",
		Title:  "lazy dropping bad rate at 90% load (SLO 100ms, optimal 500 r/s)",
		Header: []string{"alpha (ms)", "uniform bad %", "poisson bad %"},
		Notes:  []string{"paper Figure 5: poisson bad rate ~35% at alpha=1.0 falling toward ~10% at 1.8; uniform near zero"},
	}
	alphas := []float64{1.0, 1.2, 1.4, 1.6, 1.8}
	// Cells: alpha x {uniform, poisson}.
	bads := runner.MapNamed("figure5", len(alphas)*2, func(i int) float64 {
		p := fig5Profile(alphas[i/2])
		if i%2 == 0 {
			return dropPolicyBadRate(rc, backend.LazyDrop{}, p, workload.Uniform{Rate: 450}, horizon, 1, 25)
		}
		return dropPolicyBadRate(rc, backend.LazyDrop{}, p, workload.Poisson{Rate: 450}, horizon, 2, 25)
	})
	for i, alpha := range alphas {
		t.AddRow(fmt.Sprintf("%.1f", alpha),
			fmt.Sprintf("%.1f", 100*bads[2*i]),
			fmt.Sprintf("%.1f", 100*bads[2*i+1]))
	}
	return t, nil
}

func figure9(rc *RunContext) (*Table, error) {
	horizon := 30 * time.Second
	tol := 0.02
	if rc.Short {
		horizon = 10 * time.Second
		tol = 0.05
	}
	t := &Table{
		ID:     "fig9",
		Title:  "max throughput at 99% within SLO: lazy vs early drop (Poisson arrivals)",
		Header: []string{"alpha (ms)", "lazy (req/s)", "early (req/s)", "early gain %", "optimal"},
		Notes:  []string{"paper Figure 9: early drop up to ~25% higher than lazy; optimal is 500"},
	}
	alphas := []float64{1.0, 1.2, 1.4, 1.6, 1.8}
	// Cells: alpha x {lazy, early}; each cell is a full k-probe search.
	tputs := runner.MapNamed("figure9", len(alphas)*2, func(i int) float64 {
		p := fig5Profile(alphas[i/2])
		var policy backend.DropPolicy = backend.LazyDrop{}
		if i%2 == 1 {
			policy = backend.EarlyDrop{}
		}
		return metrics.MaxGoodputK(50, 520, metrics.GoodputTarget, tol, goodputProbes, func(rate float64) float64 {
			return dropPolicyBadRate(rc, policy, p, workload.Poisson{Rate: rate}, horizon, 3, 25)
		})
	})
	for i, alpha := range alphas {
		lazy, early := tputs[2*i], tputs[2*i+1]
		t.AddRow(fmt.Sprintf("%.1f", alpha),
			fmt.Sprintf("%.0f", lazy),
			fmt.Sprintf("%.0f", early),
			fmt.Sprintf("%.0f", 100*(early/lazy-1)),
			"500")
	}
	return t, nil
}

// --- Figure 15 -------------------------------------------------------------

func figure15(*RunContext) (*Table, error) {
	mdb := model.Catalog()
	pdb, err := profiler.CatalogProfiles(mdb)
	if err != nil {
		return nil, err
	}
	base := pdb.MustGet(model.ResNet50, profiler.GTX1080Ti)
	bm := mdb.MustGet(model.ResNet50)
	suffixFrac := float64(bm.SuffixFLOPs(bm.NumLayers()-2)) / float64(bm.FLOPs())
	slo := 100 * time.Millisecond
	t := &Table{
		ID:    "fig15",
		Title: "prefix batching: throughput and memory vs number of ResNet-50 variants (1 GPU, SLO 100ms)",
		Header: []string{"variants", "w/o prefix r/s", "w/ prefix r/s", "gain",
			"mem w/o", "mem 1FC", "mem 2FC", "mem 3FC"},
		Notes: []string{"paper Figure 15: prefix batching sustains up to ~110% higher throughput; memory stays near-flat with shared prefixes"},
	}
	for _, k := range []int{2, 4, 6, 8, 10} {
		sep, err := profiler.SeparateVariantsProfile(base, k)
		if err != nil {
			return nil, err
		}
		comb, err := profiler.CombinedProfile(base, suffixFrac, k)
		if err != nil {
			return nil, err
		}
		_, sepT := sep.SaturateBatch(slo)
		_, combT := comb.SaturateBatch(slo)
		row := []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.0f", sepT),
			fmt.Sprintf("%.0f", combT),
			fmt.Sprintf("%.2fx", combT/sepT),
			fmtGB(sep.MemBase),
		}
		for fc := 1; fc <= 3; fc++ {
			c, err := profiler.CombinedProfile(base, suffixFrac*float64(fc), k)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtGB(c.MemBase))
		}
		t.AddRow(row...)
	}
	return t, nil
}

func fmtGB(b int64) string {
	return fmt.Sprintf("%.2fGB", float64(b)/float64(1<<30))
}
