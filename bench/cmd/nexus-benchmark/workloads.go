package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/faults"
	"nexus/internal/forensics"
	"nexus/internal/model"
	arrivals "nexus/internal/workload"
)

// workload is one benchmark input: a deployment recipe and the fixed amount
// of virtual time one pass simulates. Every pass of a run builds a fresh
// deployment from the same seed, so all passes simulate identical work.
type workload struct {
	name string
	// warmup and measured split each pass's virtual horizon; statistics
	// cover the measured window only.
	warmup, measured time.Duration
	// passes is the number of measured passes at the default -seconds
	// (defaultSeconds); other values scale it. The pass count never depends
	// on how fast the host happens to be running. On a 2-vCPU x86-64 host
	// each count gives a run of about 15-25 s.
	passes int
	// config returns the deployment configuration for a seed.
	config func(seed int64) cluster.Config
	// install deploys the workload's apps and returns them (they define the
	// measured population) plus the fault script to arm, if any. measured is
	// the pass's measured window, which fault times are placed in.
	install func(d *cluster.Deployment, seed int64, warmup, measured time.Duration) ([]*apps.Spec, faults.Script, error)
}

// workloads lists the benchmark inputs in the order -workload names them.
var workloads = []*workload{
	{
		name: "game-steady",
		// Fig 10's game app at 80k req/s (94% of its max goodput): 20 games x
		// (6 digit crops + 1 icon) per frame, Poisson arrivals, 16 fixed GPUs.
		// The request path does nearly all the work; the planner runs twice.
		warmup: 2 * time.Second, measured: 16 * time.Second,
		passes: 6,
		config: func(seed int64) cluster.Config {
			return cluster.Config{
				System: cluster.Nexus, Features: cluster.AllFeatures(),
				GPUs: 16, Seed: seed, Epoch: 10 * time.Second, FixedCluster: true,
			}
		},
		install: func(d *cluster.Deployment, _ int64, _, _ time.Duration) ([]*apps.Spec, faults.Script, error) {
			s, err := apps.Deploy(d, poisson(apps.Game(20, 80000.0/7)))
			return []*apps.Spec{s}, nil, err
		},
	},
	{
		name: "many-sessions",
		// GameSLO(8000) gives 16k sessions at ~140k req/s, static Poisson
		// rates; the epoch outlasts the horizon, so each pass plans once.
		// Per-session state, the initial pack (setup_s) and memory dominate.
		warmup: 2 * time.Second, measured: 4 * time.Second,
		passes: 4,
		config: func(seed int64) cluster.Config {
			return cluster.Config{
				System: cluster.Nexus, Features: cluster.AllFeatures(),
				GPUs: 48, Seed: seed, Epoch: time.Hour, FixedCluster: true,
			}
		},
		install: func(d *cluster.Deployment, _ int64, _, _ time.Duration) ([]*apps.Spec, faults.Script, error) {
			s, err := apps.Deploy(d, poisson(apps.GameSLO(8000, 140000.0/7, 50*time.Millisecond)))
			return []*apps.Spec{s}, nil, err
		},
	},
	{
		name: "fleet-churn",
		// 8k sessions whose rates swing with per-game phase (see churn), at
		// only ~3.5k req/s on an elastic pool: the sharded planner runs every
		// 2 s epoch, and with hysteresis and delta routing the control plane
		// carries about half the wall time.
		warmup: 2 * time.Second, measured: 120 * time.Second,
		passes: 4,
		config: func(seed int64) cluster.Config {
			return cluster.Config{
				System: cluster.Nexus, Features: cluster.AllFeatures(),
				GPUs: 96, Seed: seed, Epoch: 2 * time.Second,
				PlannerShards: 2, PlanHysteresis: 0.05, DeltaRouting: true,
			}
		},
		install: func(d *cluster.Deployment, seed int64, _, _ time.Duration) ([]*apps.Spec, faults.Script, error) {
			s, err := apps.Deploy(d, churn(apps.GameSLO(4000, 3500.0/7, 50*time.Millisecond), seed))
			return []*apps.Spec{s}, nil, err
		},
	},
	{
		name: "traffic-chaos",
		// The traffic query DAG plus a small game app under a fault script.
		// The only workload with the observation planes and the degraded-mode
		// survival paths enabled; everywhere else they are off.
		warmup: 2 * time.Second, measured: 60 * time.Second,
		passes: 7,
		config: func(seed int64) cluster.Config {
			return cluster.Config{
				System: cluster.Nexus, Features: cluster.AllFeatures(),
				GPUs: 48, Seed: seed, Epoch: 5 * time.Second, FixedCluster: true,
				Forensics: &forensics.Config{Window: 2 * time.Second, MaxDumps: 2},
				Heartbeat: 100 * time.Millisecond, LeaseMisses: 3,
				DeltaRouting:  true,
				RouteLeaseTTL: 8 * time.Second, ServeStale: true,
				RetryBudget: 3, RetryBackoff: time.Millisecond,
				BreakerThreshold: 3, BreakerCooloff: time.Second,
			}
		},
		install: func(d *cluster.Deployment, _ int64, warmup, measured time.Duration) ([]*apps.Spec, faults.Script, error) {
			var out []*apps.Spec
			for _, b := range []apps.Builder{apps.Traffic(30, 50, false), apps.Game(4, 8000.0/7)} {
				s, err := apps.Deploy(d, poisson(b))
				if err != nil {
					return nil, nil, err
				}
				out = append(out, s)
			}
			at := func(frac float64) time.Duration { return warmup + time.Duration(frac*float64(measured)) }
			span := measured / 5
			script := faults.Script{
				{At: at(0.15), Kind: faults.Crash, Backend: "be1", Duration: span},
				{At: at(0.35), Kind: faults.Partition, Link: faults.DataLink, Backend: "be2", Duration: span},
				{At: at(0.55), Kind: faults.Surge, Factor: 1.5, Duration: span},
				{At: at(0.75), Kind: faults.Straggler, Backend: "be3", Factor: 3, Duration: span},
			}
			return out, script, nil
		},
	},
}

// workloadByName returns the named workload.
func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// poisson wraps an app builder so every load arrives as a Poisson process
// at its expected rate: open-loop traffic on the simulation clock.
func poisson(b apps.Builder) apps.Builder {
	return func(mdb *model.DB) (*apps.Spec, error) {
		s, err := b(mdb)
		if err != nil {
			return nil, err
		}
		return apps.WithPoisson(s), nil
	}
}

// Churn shape: every game's rate swings by churnDepth on a churnPeriod
// sine, with a per-game phase offset of up to churnJitter radians either
// side of the fleet's. The offsets are narrow enough that the fleet's total
// load swings too, so the elastic pool grows and shrinks every cycle.
const (
	churnDepth  = 0.6
	churnPeriod = 30 * time.Second
	churnJitter = math.Pi / 4
)

// churn wraps a game-app builder so every game's sessions follow the churn
// shape, with per-game phases drawn from the seed. Sessions come in
// per-game pairs (digits, icon).
func churn(b apps.Builder, seed int64) apps.Builder {
	return func(mdb *model.DB) (*apps.Spec, error) {
		s, err := b(mdb)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(seed))
		var phase float64
		for i := range s.Sessions {
			if i%2 == 0 {
				phase = churnJitter * (2*rng.Float64() - 1)
			}
			base, ph := s.Sessions[i].Spec.ExpectedRate, phase
			s.Sessions[i].Proc = arrivals.Modulated{RateAt: func(t time.Duration) float64 {
				return base * (1 + churnDepth*math.Sin(2*math.Pi*t.Seconds()/churnPeriod.Seconds()+ph))
			}}
		}
		return s, nil
	}
}
