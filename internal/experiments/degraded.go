package experiments

import (
	"fmt"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/faults"
	"nexus/internal/frontend"
	"nexus/internal/globalsched"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/runner"
	"nexus/internal/workload"
)

func init() {
	register(Experiment{ID: "degraded", Description: "Degraded-mode survival: scheduler outage, partitions, surge vs fault-tolerance posture", Run: degradedSweep})
}

// degradedScenario is one degraded-mode fault script.
type degradedScenario struct {
	name   string
	script func(faultAt, faultLen time.Duration) faults.Script
}

// degradedSystem is one fault-tolerance posture under test.
type degradedSystem struct {
	name   string
	mutate func(*cluster.Config)
}

// degradedSweep crosses degraded-mode faults — a long scheduler outage, a
// split control/data partition, and a low-priority demand surge — with
// three survival postures: the full degraded-mode stack (stale-serving
// leases, backoff retries, circuit breakers, priority admission, capped
// recovery), leases alone (routes expire with no repair path), and the
// full stack minus breakers. Two sessions share the cluster, one entitled
// to the high-priority admission reserve. Each cell is an isolated
// deployment with its own clock and seeded injector, so the sweep is
// byte-identical at any worker count.
func degradedSweep(rc *RunContext) (*Table, error) {
	const (
		gpus    = 4
		rate    = 1200.0 // per session; two sessions share the cluster
		slo     = 100 * time.Millisecond
		epoch   = 5 * time.Second
		faultAt = 12 * time.Second // absolute sim time: warmup (2s) + 10s
	)
	duration := 60 * time.Second
	faultLen := 30 * time.Second
	if rc.Short {
		duration = 36 * time.Second
		faultLen = 15 * time.Second
	}
	admission := func(cfg *cluster.Config) {
		cfg.Admission = map[string]frontend.AdmissionConfig{
			"hi": {Rate: 1.25 * rate, Burst: 150, Priority: 1},
			"lo": {Rate: 1.25 * rate, Burst: 150, Priority: 0},
		}
		cfg.AdmissionReserveRate = 200
		cfg.AdmissionReserveBurst = 200
	}
	scenarios := []degradedScenario{
		{name: "none", script: func(_, _ time.Duration) faults.Script { return nil }},
		{name: "outage", script: func(at, l time.Duration) faults.Script {
			return faults.Script{{At: at, Kind: faults.SchedulerOutage, Duration: l}}
		}},
		// Control cut to be0: a false-positive failover plus a lost node to
		// reconcile at heal. Data cut to be1: dispatches fail while the
		// scheduler still sees a healthy replica, so only the frontend's own
		// machinery can route around it.
		{name: "partition", script: func(at, l time.Duration) faults.Script {
			return faults.Script{
				{At: at, Kind: faults.Partition, Link: faults.ControlLink, Backend: "be0", Duration: l / 2},
				{At: at, Kind: faults.Partition, Link: faults.DataLink, Backend: "be1", Duration: l / 2},
			}
		}},
		{name: "surge", script: func(at, l time.Duration) faults.Script {
			return faults.Script{{At: at, Kind: faults.Surge, Session: "lo", Factor: 10, Duration: l}}
		}},
	}
	systems := []degradedSystem{
		{name: "full-FT", mutate: func(cfg *cluster.Config) {
			cfg.RouteLeaseTTL = 8 * time.Second
			cfg.ServeStale = true
			cfg.RetryBudget = 3
			cfg.RetryBackoff = time.Millisecond
			cfg.BreakerThreshold = 3
			cfg.BreakerCooloff = time.Second
			cfg.RecoveryMaxRouteChanges = 4
			admission(cfg)
		}},
		// Leases without any repair machinery: once the scheduler goes
		// quiet past the TTL, the frontend refuses its own table and every
		// request drops unroutable until the control plane returns.
		{name: "lease-only", mutate: func(cfg *cluster.Config) {
			cfg.RouteLeaseTTL = 8 * time.Second
		}},
		{name: "no-breaker", mutate: func(cfg *cluster.Config) {
			cfg.RouteLeaseTTL = 8 * time.Second
			cfg.ServeStale = true
			cfg.RetryBudget = 3
			cfg.RetryBackoff = time.Millisecond
			cfg.RecoveryMaxRouteChanges = 4
			admission(cfg)
		}},
	}
	type cell struct {
		sc  degradedScenario
		sys degradedSystem
	}
	var cells []cell
	for _, sc := range scenarios {
		for _, sys := range systems {
			cells = append(cells, cell{sc, sys})
		}
	}
	type result struct {
		good      float64
		hiGood    float64
		loGood    float64
		shed      uint64
		stale     uint64
		detected  int
		recovery  time.Duration
		recovered bool
		err       error
	}
	results := runner.MapNamed("degraded", len(cells), func(i int) result {
		c := cells[i]
		cfg := cluster.Config{
			System: cluster.Nexus, Features: cluster.AllFeatures(),
			GPUs: gpus, Seed: 23, Epoch: epoch,
			Heartbeat: 100 * time.Millisecond, LeaseMisses: 3,
		}
		c.sys.mutate(&cfg)
		d, err := cluster.New(cfg)
		if err != nil {
			return result{err: err}
		}
		for _, sid := range []string{"hi", "lo"} {
			if err := d.AddSession(globalsched.SessionSpec{
				ID: sid, ModelID: model.ResNet50, SLO: slo, ExpectedRate: rate,
			}, workload.Uniform{Rate: rate}); err != nil {
				return result{err: err}
			}
		}
		in := faults.New(d.Clock, d, 23)
		if err := in.Schedule(c.sc.script(faultAt, faultLen)); err != nil {
			return result{err: err}
		}
		bad, err := d.Run(duration)
		rc.AddEvents(d.Clock.Executed())
		if err != nil {
			return result{err: err}
		}
		hi, lo := d.Recorder.Session("hi"), d.Recorder.Session("lo")
		pct := func(s *metrics.SessionStats) float64 {
			if s.Sent == 0 {
				return 0
			}
			return 100 * float64(s.Good()) / float64(s.Sent)
		}
		rec, ok := metrics.RecoveryTime(d.GoodEvts, faultAt, 5*time.Second, 0.95)
		return result{
			good:      100 * (1 - bad),
			hiGood:    pct(hi),
			loGood:    pct(lo),
			shed:      hi.Admission + lo.Admission,
			stale:     d.Frontend.StaleServed(),
			detected:  d.Failures(),
			recovery:  rec,
			recovered: ok,
		}
	})
	t := &Table{
		ID:     "degraded",
		Title:  fmt.Sprintf("degraded-mode survival, 2x ResNet-50 @ %.0f r/s each (SLO %v, %d GPUs, fault at t=%v for %v)", rate, slo, gpus, faultAt, faultLen),
		Header: []string{"Scenario", "System", "good %", "hi good %", "lo good %", "shed", "stale", "detected", "recovery"},
		Notes: []string{
			"full-FT: 8s route leases served stale, 3-retry backoff budget, breakers (3 fails, 1s cooloff), priority admission with reserve, capped recovery publish",
			"lease-only: 8s leases with no stale serving, retries, breakers, or admission — expiry with no repair path",
			"outage: scheduler down for the fault window; partition: control cut to be0 (false-positive failover) + data cut to be1; surge: 10x offered rate on the low-priority session",
			"shed: requests dropped by admission control; stale: dispatches served past the route lease; recovery: time until goodput regains 95% of its pre-fault mean",
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
			fmt.Sprintf("%.1f", r.hiGood),
			fmt.Sprintf("%.1f", r.loGood),
			fmt.Sprintf("%d", r.shed),
			fmt.Sprintf("%d", r.stale),
			fmt.Sprintf("%d", r.detected),
			rec)
	}
	return t, nil
}
