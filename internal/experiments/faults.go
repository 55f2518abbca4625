package experiments

import (
	"fmt"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/faults"
	"nexus/internal/globalsched"
	"nexus/internal/metrics"
	"nexus/internal/model"
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
	rows, err := runCells("chaos", len(cells), func(i int) ([]string, error) {
		c := cells[i]
		cfg := cluster.Config{
			System: cluster.Nexus, Features: cluster.AllFeatures(),
			GPUs: gpus, Seed: 23, Epoch: epoch,
		}
		c.sys.mutate(&cfg)
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
		d, bad, rec, err := faultCell(rc, cfg, []string{"s"}, slo, rate, proc, c.sc.script, faultAt, duration)
		if err != nil {
			return nil, err
		}
		s := d.Recorder.Session("s")
		return []string{c.sc.name, c.sys.name,
			fmt.Sprintf("%.1f", 100*(1-bad)),
			fmt.Sprintf("%d", s.Failed),
			fmt.Sprintf("%d", s.Unroutable),
			fmt.Sprintf("%d", d.Failures()),
			rec}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "chaos",
		Title:  fmt.Sprintf("fault injection on ResNet-50 @ %.0f r/s (SLO %v, %d GPUs, fault at t=%v)", rate, slo, gpus, faultAt),
		Header: []string{"Scenario", "System", "good %", "failed", "unroutable", "detected", "recovery"},
		Rows:   rows,
		Notes: []string{
			"Nexus-FT: 100ms heartbeat, lease = 3 missed beats, retry-once; epoch-only: same runtime, failures noticed at 10s epoch boundaries",
			"lazy-drop: epoch-only detection without early drop; it is past its capacity frontier at this load even fault-free (Figure 10's -ED)",
			"recovery: time from the fault instant until goodput regains 95% of its pre-fault mean",
		},
	}, nil
}

// faultCell runs one cell of a fault-injection sweep: a deployment built
// from cfg serving one ResNet-50 session per ID at the given SLO, rate and
// arrival process, with script injected by an injector seeded with
// cfg.Seed, run for duration. Besides the deployment and its bad rate, it
// returns the time from faultAt until goodput regains 95% of its
// pre-fault mean (metrics.RecoveryTime), formatted for a table: "-" if it
// never does.
func faultCell(rc *RunContext, cfg cluster.Config, ids []string, slo time.Duration, rate float64,
	proc workload.Process, script faults.Script, faultAt, duration time.Duration) (*cluster.Deployment, float64, string, error) {
	d, err := cluster.New(cfg)
	if err != nil {
		return nil, 0, "", err
	}
	for _, id := range ids {
		if err := d.AddSession(globalsched.SessionSpec{
			ID: id, ModelID: model.ResNet50, SLO: slo, ExpectedRate: rate,
		}, proc); err != nil {
			return nil, 0, "", err
		}
	}
	if err := faults.New(d.Clock, d, cfg.Seed).Schedule(script); err != nil {
		return nil, 0, "", err
	}
	bad, err := d.Run(duration)
	rc.AddEvents(d.Clock.Executed())
	if err != nil {
		return nil, 0, "", err
	}
	recovery := "-"
	if rec, ok := metrics.RecoveryTime(d.GoodEvts, faultAt, 5*time.Second, 0.95); ok {
		recovery = rec.Round(time.Millisecond).String()
	}
	return d, bad, recovery, nil
}
