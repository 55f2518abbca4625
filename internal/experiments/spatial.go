package experiments

import (
	"fmt"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/scheduler"
	"nexus/internal/workload"
)

func init() {
	register(Experiment{
		ID:          "spatial",
		Description: "Temporal vs spatial vs hybrid GPU multiplexing on a small-model tight-SLO fleet",
		Run:         spatialSweep,
	})
}

// spatialVariant is one placement policy of the sweep.
type spatialVariant struct {
	name      string
	placement scheduler.Placement
}

// spatialResult carries one variant's deployment outcome.
type spatialResult struct {
	goodput      float64 // good completions per second
	badPct       float64
	gpus         float64 // mean GPUs in use
	goodPerGPU   float64
	spatialNodes int // spatial plan nodes in the final epoch
}

// spatialDeploy runs the camera-fleet workload under one placement policy.
// The fleet is the spatial sweet spot: many low-rate sessions of a small
// model under an SLO tight enough that temporal packing cannot merge their
// duty cycles — each session's batch execution alone nearly fills the
// SLO-clamped cycle, so the temporal planner dedicates a node per session
// at single-digit occupancy. A heavier recognition backbone rides along to
// show saturated placements are untouched by the policy.
func spatialDeploy(rc *RunContext, v spatialVariant) (spatialResult, error) {
	cams := 16
	window := 60 * time.Second
	if rc.Short {
		cams = 8
		window = 20 * time.Second
	}
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: 24, Seed: 21,
		Epoch: 10 * time.Second, Audit: true,
		Placement:        v.placement,
		SliceGranularity: 4,
	})
	if err != nil {
		return spatialResult{}, err
	}
	for i := 0; i < cams; i++ {
		if err := d.AddSession(globalsched.SessionSpec{
			ID:      fmt.Sprintf("cam-%02d", i),
			ModelID: model.GoogLeNetCar,
			SLO:     13 * time.Millisecond, ExpectedRate: 30,
		}, workload.Poisson{Rate: 30}); err != nil {
			return spatialResult{}, err
		}
	}
	if err := d.AddSession(globalsched.SessionSpec{
		ID:      "backbone",
		ModelID: model.ResNet50,
		SLO:     50 * time.Millisecond, ExpectedRate: 600,
	}, workload.Poisson{Rate: 600}); err != nil {
		return spatialResult{}, err
	}
	if _, err := d.Run(window); err != nil {
		return spatialResult{}, err
	}
	rc.AddEvents(d.Clock.Executed())
	res := spatialResult{
		goodput: d.Goodput(window),
		badPct:  100 * d.BadRate(),
		gpus:    d.AvgGPUsUsed(),
	}
	if res.gpus > 0 {
		res.goodPerGPU = res.goodput / res.gpus
	}
	placements := d.Audit().Placements()
	lastEpoch := 0
	for _, p := range placements {
		if p.Epoch > lastEpoch {
			lastEpoch = p.Epoch
		}
	}
	for _, p := range placements {
		if p.Epoch == lastEpoch && p.Spatial {
			res.spatialNodes++
		}
	}
	return res, nil
}

// spatialSweep compares the three multiplexing policies on the same
// workload and seed. The headline is goodput per GPU: spatial slices serve
// the camera fleet on a fraction of the devices temporal duty cycles
// dedicate to it, at equal goodput.
func spatialSweep(rc *RunContext) (*Table, error) {
	variants := []spatialVariant{
		{name: "temporal", placement: scheduler.PlaceTemporal},
		{name: "spatial", placement: scheduler.PlaceSpatial},
		{name: "hybrid", placement: scheduler.PlaceHybrid},
	}
	results, err := runCells("spatial", len(variants), func(i int) (spatialResult, error) {
		res, err := spatialDeploy(rc, variants[i])
		if err != nil {
			return res, fmt.Errorf("%s: %w", variants[i].name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "spatial",
		Title:  "GPU multiplexing policy on a 13ms-SLO camera fleet plus a ResNet-50 backbone",
		Header: []string{"placement", "goodput (r/s)", "bad %", "GPUs in use", "goodput/GPU", "spatial nodes"},
		Notes: []string{
			"each camera session's batch latency nearly fills its SLO-clamped duty cycle, so temporal packing dedicates a near-idle GPU per camera",
			"spatial placement pins each camera to a quarter-GPU compute slice; co-resident slices run concurrently under the profiler's interference model",
			"hybrid chooses per session: slices where cheaper, duty cycles (and saturation) elsewhere — it must never use more GPUs than temporal",
		},
	}
	for i, v := range variants {
		res := results[i]
		t.AddRow(v.name,
			fmt.Sprintf("%.0f", res.goodput),
			fmt.Sprintf("%.2f", res.badPct),
			fmt.Sprintf("%.1f", res.gpus),
			fmt.Sprintf("%.0f", res.goodPerGPU),
			fmt.Sprintf("%d", res.spatialNodes),
		)
	}
	return t, nil
}
