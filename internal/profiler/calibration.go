package profiler

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"nexus/internal/model"
)

// calibration pins batch-1 GPU latency (GTX 1080Ti) and the fixed-cost
// fraction β/ℓ(1) for each catalog model. Batch-1 latencies follow the
// numbers the paper reports where it reports them (ResNet-50 6.2 ms,
// Inception 7.0 ms, Darknet-53 26.3 ms, SSD 47 ms, GoogLeNet-car 4.2 ms,
// LeNet < 0.1 ms, VGG7 < 1 ms); the rest are set proportionally to model
// FLOPs. fixedFrac ~0.75–0.9 reproduces the paper's observed 4.7–13.3×
// batching speedup at b=32.
type calibration struct {
	lat1080Ti time.Duration // ℓ(1) on GTX 1080Ti
	fixedFrac float64       // β / ℓ(1)
	preproc   time.Duration // CPU per item
	postproc  time.Duration // CPU per item
	maxBatch  int
	cpuLat    time.Duration // batch-1 latency on the CPU baseline (Table 1)
}

var calibrations = map[string]calibration{
	model.LeNet5:       {80 * time.Microsecond, 0.85, 2 * time.Millisecond, 200 * time.Microsecond, 256, 6 * time.Millisecond},
	model.VGG7:         {900 * time.Microsecond, 0.80, 3 * time.Millisecond, 300 * time.Microsecond, 128, 44 * time.Millisecond},
	model.ResNet50:     {6200 * time.Microsecond, 0.88, 8 * time.Millisecond, 500 * time.Microsecond, 64, 1130 * time.Millisecond},
	model.Inception4:   {7 * time.Millisecond, 0.88, 8 * time.Millisecond, 500 * time.Microsecond, 64, 2110 * time.Millisecond},
	model.InceptionV3:  {7500 * time.Microsecond, 0.88, 8 * time.Millisecond, 500 * time.Microsecond, 64, 1600 * time.Millisecond},
	model.Darknet53:    {26300 * time.Microsecond, 0.80, 10 * time.Millisecond, 1 * time.Millisecond, 32, 7210 * time.Millisecond},
	model.SSD:          {47 * time.Millisecond, 0.75, 10 * time.Millisecond, 2 * time.Millisecond, 32, 9 * time.Second},
	model.VGGFace:      {14 * time.Millisecond, 0.82, 6 * time.Millisecond, 500 * time.Microsecond, 48, 3200 * time.Millisecond},
	model.GoogLeNetCar: {4200 * time.Microsecond, 0.86, 5 * time.Millisecond, 400 * time.Microsecond, 64, 760 * time.Millisecond},
	model.OpenPose:     {21 * time.Millisecond, 0.78, 10 * time.Millisecond, 2 * time.Millisecond, 32, 5200 * time.Millisecond},
	model.GazeNet:      {2 * time.Millisecond, 0.85, 3 * time.Millisecond, 300 * time.Microsecond, 128, 310 * time.Millisecond},
	model.TextCRNN:     {3 * time.Millisecond, 0.84, 3 * time.Millisecond, 400 * time.Microsecond, 128, 520 * time.Millisecond},
}

// gpuScale is the execution-time multiplier of each GPU type relative to
// the GTX 1080Ti reference.
var gpuScale = map[GPUType]float64{
	GTX1080Ti: 1.0,
	K80:       3.2,
	V100:      0.55,
}

// workspaceBytes is the fixed per-model GPU workspace (cuDNN scratch,
// framework state) charged on top of parameter memory.
const workspaceBytes = 500 << 20

// CatalogProfiles builds profiles for every model in mdb that has a
// calibration entry, on every GPU type in gpuScale. Specialized variants
// ("<base>-vN" and other clones) inherit the base model's calibration when
// given explicitly via BaseOf.
func CatalogProfiles(mdb *model.DB) (*DB, error) {
	db := NewDB()
	for _, id := range mdb.IDs() {
		if _, ok := calibrations[BaseOf(id)]; !ok {
			continue
		}
		m := mdb.MustGet(id)
		for gpu := range gpuScale {
			p, err := Calibrate(m, gpu)
			if err != nil {
				return nil, err
			}
			db.profiles[key(p.ModelID, p.GPU)] = p // Calibrate validated it
		}
	}
	return db, nil
}

// ProfiledGPUs lists, sorted, the GPU types Calibrate can profile: the
// device types a deployment can run on.
func ProfiledGPUs() []GPUType {
	out := make([]GPUType, 0, len(gpuScale))
	for gpu := range gpuScale {
		out = append(out, gpu)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Calibrated reports whether Calibrate can profile model id on gpu: its
// base model (BaseOf) has a calibration entry and gpu is a profiled type.
func Calibrated(id string, gpu GPUType) bool {
	_, ok := calibrations[BaseOf(id)]
	_, gok := gpuScale[gpu]
	return ok && gok
}

// Calibrate derives and validates m's batching profile on gpu from the
// calibration of its base model (BaseOf(m.ID)). Every model calibrated from
// one base on one GPU type shares the same latency model, so its memo table
// is built and checked once per (base, GPU) and shared read-only; only the
// model-dependent fields (ID, memory, SM saturation) are per model.
func Calibrate(m *model.Model, gpu GPUType) (*Profile, error) {
	tables, err := latencyModels()
	if err != nil {
		return nil, err
	}
	lm, ok := tables[calKey{BaseOf(m.ID), gpu}]
	if !ok {
		return nil, fmt.Errorf("profiler: no calibration for %s on %s", m.ID, gpu)
	}
	p := *lm.profile
	p.ModelID = m.ID
	p.MemBase = m.ParamBytes() + workspaceBytes
	p.MemPerItem = 16 * m.Layer(0).ActBytes
	if p.MemPerItem < 1<<20 {
		p.MemPerItem = 1 << 20
	}
	// SM saturation: the marginal item runs m.FLOPs() of compute in α
	// seconds; the ratio of that achieved rate to the device's peak is how
	// much of the GPU the model can actually keep busy. Small models (LeNet,
	// VGG7) land near the floor — the spatial-sharing sweet spot — while
	// heavy CNNs push toward 1 and gain nothing from a fractional slice.
	p.SMSaturation = 1
	if lm.peakTFLOPS > 0 && p.Alpha > 0 {
		achieved := float64(m.FLOPs()) / p.Alpha.Seconds()
		p.SMSaturation = min(max(achieved/(lm.peakTFLOPS*1e12), 0.05), 1)
	}
	// The shared table passed checkTable when latencyModels built it, and
	// that check depends only on fields p keeps unchanged.
	if err := p.checkModel(); err != nil {
		return nil, fmt.Errorf("calibrating %s on %s: %w", m.ID, gpu, err)
	}
	return &p, nil
}

// calKey names one calibrated latency model: a base model on a GPU type.
type calKey struct {
	base string
	gpu  GPUType
}

// latencyModel is the validated, model-independent part of a calibrated
// profile, shared by every model of one base on one GPU type.
type latencyModel struct {
	profile    *Profile // ModelID is the base's; memory fields unset
	peakTFLOPS float64  // the GPU type's peak, for SM saturation
}

// latencyModels builds every (base, GPU) latency model once per process:
// |calibrations| × |gpuScale| small tables, read-only once built.
var latencyModels = sync.OnceValues(func() (map[calKey]latencyModel, error) {
	specs := Specs()
	out := make(map[calKey]latencyModel, len(calibrations)*len(gpuScale))
	for base, cal := range calibrations {
		for gpu, scale := range gpuScale {
			l1 := time.Duration(float64(cal.lat1080Ti) * scale)
			beta := time.Duration(float64(l1) * cal.fixedFrac)
			alpha := l1 - beta
			if alpha < time.Microsecond {
				alpha = time.Microsecond
			}
			p := &Profile{
				ModelID:     base,
				GPU:         gpu,
				Alpha:       alpha,
				Beta:        beta,
				MaxBatch:    cal.maxBatch,
				PreprocCPU:  cal.preproc,
				PostprocCPU: cal.postproc,
			}
			if err := p.Validate(); err != nil {
				return nil, fmt.Errorf("calibrating %s on %s: %w", base, gpu, err)
			}
			out[calKey{base, gpu}] = latencyModel{profile: p, peakTFLOPS: specs[gpu].PeakTFLOPS}
		}
	}
	return out, nil
})

// BaseOf maps a specialized variant ID ("resnet50-v3") to its base catalog
// ID ("resnet50"). IDs without the "-v" suffix map to themselves.
func BaseOf(id string) string {
	for i := len(id) - 1; i > 0; i-- {
		if id[i] == '-' {
			if i+1 < len(id) && id[i+1] == 'v' && allDigits(id[i+2:]) {
				return id[:i]
			}
			return id
		}
	}
	return id
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// CPULatency returns the Table 1 CPU batch-1 latency for a catalog model,
// or an error if uncalibrated.
func CPULatency(modelID string) (time.Duration, error) {
	cal, ok := calibrations[BaseOf(modelID)]
	if !ok {
		return 0, fmt.Errorf("profiler: no CPU calibration for %q", modelID)
	}
	return cal.cpuLat, nil
}

// CostPer1000 estimates the Table 1 dollar cost of 1000 invocations on a
// device running the model back-to-back at its best batch size (batch 1 on
// CPU). For the TPU column, which we do not profile, the GPU profile's
// compute is rescaled by peak-FLOPS ratio.
func CostPer1000(p *Profile, spec GPUSpec) float64 {
	var perInvocation time.Duration
	switch spec.Type {
	case CPUAVX512:
		lat, err := CPULatency(p.ModelID)
		if err != nil {
			// Fall back to scaling GPU time by peak-FLOPS ratio.
			lat = scaleByPeak(p, spec)
		}
		perInvocation = lat
	case TPUv2:
		perInvocation = scaleByPeak(p, spec)
	default:
		b := p.MaxBatch
		perInvocation = time.Duration(float64(p.BatchLatency(b)) / float64(b))
	}
	return 1000 * perInvocation.Hours() * spec.HourlyUSD
}

func scaleByPeak(p *Profile, spec GPUSpec) time.Duration {
	ref := Specs()[p.GPU]
	b := p.MaxBatch
	perInv := float64(p.BatchLatency(b)) / float64(b)
	return time.Duration(perInv * ref.PeakTFLOPS / spec.PeakTFLOPS)
}
