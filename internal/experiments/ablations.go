package experiments

import (
	"fmt"
	"time"

	"nexus/internal/backend"
	"nexus/internal/cluster"
	"nexus/internal/globalsched"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/queryopt"
	"nexus/internal/runner"
	"nexus/internal/scheduler"
	"nexus/internal/workload"
)

func init() {
	register(Experiment{ID: "abl-slofactor", Description: "Ablation: worst-case SLO factor vs GPUs required (§4.1's factor-2 rule)", Run: ablationSLOFactor})
	register(Experiment{ID: "abl-epsilon", Description: "Ablation: latency-split DP discretization vs plan quality (§6.2)", Run: ablationEpsilon})
	register(Experiment{ID: "abl-slack", Description: "Ablation: planning slack vs bad rate and GPU usage", Run: ablationSlack})
	register(Experiment{ID: "abl-window", Description: "Ablation: early-drop window size vs goodput (§6.3)", Run: ablationWindow})
	register(Experiment{ID: "abl-defer", Description: "Extension: drop vs defer-at-low-priority service models (§5)", Run: ablationDefer})
}

// ablationSLOFactor sweeps the worst-case multiplier of §4.1. Factor 2 is
// the paper's rule (one batch of waiting plus one of execution); larger
// factors are more conservative and cost GPUs.
func ablationSLOFactor(*RunContext) (*Table, error) {
	mdb := model.Catalog()
	pdb, err := profiler.CatalogProfiles(mdb)
	if err != nil {
		return nil, err
	}
	profiles := map[string]*profiler.Profile{
		model.ResNet50: pdb.MustGet(model.ResNet50, profiler.GTX1080Ti),
	}
	sessions := []scheduler.Session{
		{ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, Rate: 5000},
	}
	t := &Table{
		ID:     "abl-slofactor",
		Title:  "SLO factor vs GPUs for ResNet-50 @ 5000 r/s, SLO 100ms",
		Header: []string{"factor", "batch B", "per-GPU r/s", "GPUs"},
		Notes:  []string{"factor 2 is the paper's worst-case rule; below 2 is unsafe (a missed batch waits a full batch time)"},
	}
	for _, factor := range []float64{2, 2.5, 3, 4} {
		cfg := scheduler.Config{SLOFactor: factor}
		plan, err := scheduler.Pack(sessions, profiles, cfg)
		if err != nil {
			return nil, err
		}
		if err := scheduler.Validate(plan, sessions, profiles, cfg); err != nil {
			return nil, err
		}
		p := profiles[model.ResNet50]
		b := p.MaxBatchWithin(time.Duration(float64(100*time.Millisecond) / factor))
		t.AddRow(fmt.Sprintf("%.1f", factor),
			fmt.Sprint(b),
			fmt.Sprintf("%.0f", p.Throughput(b)),
			fmt.Sprint(plan.GPUCount()))
	}
	return t, nil
}

// ablationEpsilon sweeps the DP's budget discretization on the traffic
// query: coarser grids run faster but find worse splits.
func ablationEpsilon(*RunContext) (*Table, error) {
	mdb := model.Catalog()
	pdb, err := profiler.CatalogProfiles(mdb)
	if err != nil {
		return nil, err
	}
	profiles := make(map[string]*profiler.Profile)
	for _, id := range []string{model.SSD, model.GoogLeNetCar, model.VGGFace} {
		profiles[id] = pdb.MustGet(id, profiler.GTX1080Ti)
	}
	q := &queryopt.Query{
		Name: "traffic", SLO: 400 * time.Millisecond,
		Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
			{Gamma: 1.5, Child: &queryopt.Node{Name: "car", ModelID: model.GoogLeNetCar}},
			{Gamma: 0.5, Child: &queryopt.Node{Name: "face", ModelID: model.VGGFace}},
		}},
	}
	t := &Table{
		ID:     "abl-epsilon",
		Title:  "latency-split DP discretization on the traffic query (80 q/s)",
		Header: []string{"epsilon", "det budget", "est. GPUs"},
		Notes:  []string{"state space is SLO/epsilon; 5ms (the default) already sits on the quality plateau"},
	}
	for _, eps := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond} {
		split, err := queryopt.Optimize(q, 80, profiles, eps, scheduler.Config{})
		if err != nil {
			return nil, err
		}
		t.AddRow(eps.String(), split.Budgets["det"].String(), fmt.Sprintf("%.3f", split.GPUs))
	}
	return t, nil
}

// ablationSlack sweeps the control plane's planning slack: too little and
// runtime costs the profile does not capture blow the SLO; too much wastes
// GPUs.
func ablationSlack(rc *RunContext) (*Table, error) {
	horizon := 30 * time.Second
	if rc.Short {
		horizon = 10 * time.Second
	}
	t := &Table{
		ID:     "abl-slack",
		Title:  "planning slack vs bad rate (ResNet-50 @ 2500 r/s, SLO 50ms, 4 GPUs)",
		Header: []string{"slack", "bad %", "GPUs used"},
		Notes:  []string{"zero slack under-provisions (planner believes the raw profile); the adaptive runtime hides most of the SLO damage at this load, but the safety margin is gone at the frontier"},
	}
	slacks := []time.Duration{-1, 3 * time.Millisecond, 10 * time.Millisecond}
	rows, err := runCells("ablation-slack", len(slacks), func(i int) ([]string, error) {
		d, err := cluster.New(cluster.Config{
			System: cluster.Nexus, Features: cluster.AllFeatures(),
			GPUs: 4, Seed: 5, Epoch: 10 * time.Second, PlanningSlack: slacks[i],
		})
		if err != nil {
			return nil, err
		}
		if err := d.AddSession(globalsched.SessionSpec{
			ID: "s", ModelID: model.ResNet50, SLO: 50 * time.Millisecond, ExpectedRate: 2500,
		}, workload.Poisson{Rate: 2500}); err != nil {
			return nil, err
		}
		bad, err := d.Run(horizon)
		rc.AddEvents(d.Clock.Executed())
		if err != nil {
			return nil, err
		}
		label := slacks[i].String()
		if slacks[i] < 0 {
			label = "none"
		}
		return []string{label, fmt.Sprintf("%.2f", 100*bad), fmt.Sprintf("%.1f", d.AvgGPUsUsed())}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// ablationWindow sweeps the early-drop window (the scheduler-assigned
// batch size) on the Figure 5 synthetic workload: small windows forgo
// batching efficiency, oversized windows over-drop.
func ablationWindow(rc *RunContext) (*Table, error) {
	horizon := 30 * time.Second
	tol := 0.02
	if rc.Short {
		horizon, tol = 10*time.Second, 0.05
	}
	p := fig5Profile(1.2)
	t := &Table{
		ID:     "abl-window",
		Title:  "early-drop window size vs max goodput (alpha=1.2ms synthetic, SLO 100ms)",
		Header: []string{"window", "goodput (req/s)"},
		Notes:  []string{"the scheduler-assigned batch (25) maximizes goodput; §6.3's window choice is not arbitrary"},
	}
	windows := []int{5, 10, 25, 40, 64}
	tputs := runner.MapNamed("ablation-window", len(windows), func(i int) float64 {
		return metrics.MaxGoodputK(50, 520, metrics.GoodputTarget, tol, goodputProbes, func(rate float64) float64 {
			return dropPolicyBadRate(rc, backend.EarlyDrop{}, p, workload.Poisson{Rate: rate}, horizon, 3, windows[i])
		})
	})
	for i, window := range windows {
		t.AddRow(fmt.Sprint(window), fmt.Sprintf("%.0f", tputs[i]))
	}
	return t, nil
}

// ablationDefer contrasts the paper's two service models (§5): drop
// excess requests vs defer them to low priority. A transient burst beyond
// capacity is the interesting case — deferral completes the excess late,
// once the burst subsides, instead of discarding it.
func ablationDefer(rc *RunContext) (*Table, error) {
	horizon := 40 * time.Second
	if rc.Short {
		horizon = 25 * time.Second
	}
	t := &Table{
		ID:     "abl-defer",
		Title:  "drop vs defer service model across a 2x burst (Inception @ SLO 100ms, 1 GPU)",
		Header: []string{"mode", "on-time %", "served late %", "lost %"},
		Notes:  []string{"§5: \"we could configure our system to simply delay the execution of requests that miss their deadlines\""},
	}
	modes := []bool{false, true}
	stats, err := runCells("ablation-defer", len(modes), func(i int) (*metrics.SessionStats, error) {
		d, err := cluster.New(cluster.Config{
			System: cluster.Nexus, Features: cluster.AllFeatures(),
			GPUs: 1, Seed: 9, Epoch: 10 * time.Second, DeferDropped: modes[i],
		})
		if err != nil {
			return nil, err
		}
		// Base load within capacity; a 5s burst at ~2x capacity.
		sched := workload.Burst(600, 2000, 12*time.Second, 17*time.Second)
		if err := d.AddSession(globalsched.SessionSpec{
			ID: "s", ModelID: model.InceptionV3, SLO: 100 * time.Millisecond, ExpectedRate: 600,
		}, workload.Modulated{RateAt: sched.RateAt}); err != nil {
			return nil, err
		}
		if _, err := d.Run(horizon); err != nil {
			return nil, err
		}
		rc.AddEvents(d.Clock.Executed())
		return d.Recorder.Session("s"), nil
	})
	if err != nil {
		return nil, err
	}
	for i, deferMode := range modes {
		st := stats[i]
		total := float64(st.Sent)
		mode := "drop (default)"
		if deferMode {
			mode = "defer"
		}
		t.AddRow(mode,
			fmt.Sprintf("%.1f", 100*float64(st.Good())/total),
			fmt.Sprintf("%.1f", 100*float64(st.Missed)/total),
			fmt.Sprintf("%.1f", 100*float64(st.Dropped)/total))
	}
	return t, nil
}
