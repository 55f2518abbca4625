package experiments

import (
	"fmt"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/faults"
	"nexus/internal/globalsched"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/runner"
	"nexus/internal/workload"
)

func init() {
	register(Experiment{ID: "chaos", Description: "Fault injection: crashes, stragglers, surges vs detection mode", Run: chaosSweep})
}

// chaosScenario is one fault script applied to a running deployment.
type chaosScenario struct {
	name   string
	script faults.Script
	// surge doubles the offered rate for the fault window instead of (or in
	// addition to) injecting faults.
	surge bool
}

// chaosSystem is one detection/recovery configuration under test.
type chaosSystem struct {
	name string
	// mutate specializes the base deployment config.
	mutate func(*cluster.Config)
}

// chaosSweep crosses fault scenarios with recovery configurations: full
// Nexus with heartbeat failure detection and retry, against a lazy-drop
// baseline that only notices failures at epoch boundaries. Each cell is an
// isolated deployment with its own clock and seeded injector, so the sweep
// is deterministic at any worker count. Recovery time is measured from the
// fault instant to the first second where goodput regains 95% of its
// pre-fault mean (metrics.RecoveryTime).
func chaosSweep(rc *RunContext) (*Table, error) {
	const (
		gpus     = 8
		rate     = 3000.0
		slo      = 100 * time.Millisecond
		epoch    = 10 * time.Second
		faultAt  = 12 * time.Second // absolute sim time: warmup (2s) + 10s
		faultLen = 15 * time.Second
	)
	duration := 60 * time.Second
	if rc.Short {
		duration = 30 * time.Second
	}
	// "be0" is the first backend the planner acquires, so it always carries
	// a full replica share — crashing it produces a visible goodput dip
	// (a seeded random pick can land on a residual low-weight replica).
	scenarios := []chaosScenario{
		{name: "crash", script: faults.Script{
			{At: faultAt, Kind: faults.Crash, Backend: "be0"},
		}},
		{name: "transient", script: faults.Script{
			{At: faultAt, Kind: faults.Crash, Backend: "be0", Duration: faultLen},
		}},
		{name: "straggler", script: faults.Script{
			{At: faultAt, Kind: faults.Straggler, Backend: "be0", Factor: 4, Duration: faultLen},
		}},
		{name: "netspike", script: faults.Script{
			{At: faultAt, Kind: faults.NetDelay, Delay: 5 * time.Millisecond, Duration: faultLen},
		}},
		{name: "surge", surge: true},
	}
	systems := []chaosSystem{
		{name: "Nexus-FT", mutate: func(cfg *cluster.Config) {
			cfg.Heartbeat = 100 * time.Millisecond
			cfg.LeaseMisses = 3
			cfg.RetryBudget = 1
		}},
		{name: "epoch-only", mutate: func(cfg *cluster.Config) {}},
		{name: "lazy-drop", mutate: func(cfg *cluster.Config) {
			cfg.Features.EarlyDrop = false
		}},
	}
	type cell struct {
		sc  chaosScenario
		sys chaosSystem
	}
	var cells []cell
	for _, sc := range scenarios {
		for _, sys := range systems {
			cells = append(cells, cell{sc, sys})
		}
	}
	type result struct {
		good       float64
		failed     uint64
		unroutable uint64
		detected   int
		recovery   time.Duration
		recovered  bool
		err        error
	}
	results := runner.MapNamed("chaos", len(cells), func(i int) result {
		c := cells[i]
		cfg := cluster.Config{
			System: cluster.Nexus, Features: cluster.AllFeatures(),
			GPUs: gpus, Seed: 23, Epoch: epoch,
			SessionTimelines: true,
		}
		c.sys.mutate(&cfg)
		d, err := cluster.New(cfg)
		if err != nil {
			return result{err: err}
		}
		// Uniform arrivals keep both systems healthy pre-fault (lazy drop
		// collapses under Poisson bursts even fault-free, Figure 5), so the
		// table isolates the fault response. The surge scenario is the
		// exception: its fault IS a Poisson overload wave.
		var proc workload.Process = workload.Uniform{Rate: rate}
		if c.sc.surge {
			sched := workload.Schedule{
				{Until: faultAt, Rate: rate},
				{Until: faultAt + faultLen, Rate: 2 * rate},
				{Until: 10 * time.Hour, Rate: rate},
			}
			proc = workload.Modulated{RateAt: sched.RateAt}
		}
		if err := d.AddSession(globalsched.SessionSpec{
			ID: "s", ModelID: model.ResNet50, SLO: slo, ExpectedRate: rate,
		}, proc); err != nil {
			return result{err: err}
		}
		in := faults.New(d.Clock, d, 23)
		if err := in.Schedule(c.sc.script); err != nil {
			return result{err: err}
		}
		bad, err := d.Run(duration)
		rc.AddEvents(d.Clock.Executed())
		if err != nil {
			return result{err: err}
		}
		s := d.Recorder.Session("s")
		rec, ok := metrics.RecoveryTime(d.GoodEvts, faultAt, 5*time.Second, 0.95)
		return result{
			good:       100 * (1 - bad),
			failed:     s.Failed,
			unroutable: s.Unroutable,
			detected:   d.Failures(),
			recovery:   rec,
			recovered:  ok,
		}
	})
	t := &Table{
		ID:     "chaos",
		Title:  fmt.Sprintf("fault injection on ResNet-50 @ %.0f r/s (SLO %v, %d GPUs, fault at t=%v)", rate, slo, gpus, faultAt),
		Header: []string{"Scenario", "System", "good %", "failed", "unroutable", "detected", "recovery"},
		Notes: []string{
			"Nexus-FT: 100ms heartbeat, lease = 3 missed beats, retry-once; epoch-only: same runtime, failures noticed at 10s epoch boundaries",
			"lazy-drop: epoch-only detection without early drop; it is past its capacity frontier at this load even fault-free (Figure 10's -ED)",
			"recovery: time from the fault instant until goodput regains 95% of its pre-fault mean",
		},
	}
	for i, c := range cells {
		r := results[i]
		if r.err != nil {
			return nil, r.err
		}
		rec := "-"
		if r.recovered {
			rec = r.recovery.Round(time.Millisecond).String()
		}
		t.AddRow(c.sc.name, c.sys.name,
			fmt.Sprintf("%.1f", r.good),
			fmt.Sprintf("%d", r.failed),
			fmt.Sprintf("%d", r.unroutable),
			fmt.Sprintf("%d", r.detected),
			rec)
	}
	return t, nil
}
