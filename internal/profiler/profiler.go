// Package profiler implements Nexus batching profiles (§2.2, Eq. 1).
//
// A profile describes how a model executes on a GPU type: batched execution
// latency ℓ(b) (either a measured point table or the paper's linear model
// ℓ(b) = αb + β), CPU pre/post-processing cost per item, and memory
// footprint. The management plane derives a profile when a model is
// uploaded (§5); here profiles come from a calibration table matching the
// latencies the paper reports, or from a linear fit of measured points.
package profiler

import (
	"fmt"
	"math"
	"time"
)

// GPUType names a device model.
type GPUType string

// GPU types used in the paper's evaluation.
const (
	GTX1080Ti GPUType = "gtx1080ti"
	K80       GPUType = "k80"
	V100      GPUType = "v100"
	CPUAVX512 GPUType = "cpu_avx512" // c5.large-class CPU, Table 1 baseline
	TPUv2     GPUType = "tpu_v2"     // Table 1 cost comparison only
)

// GPUSpec carries the device characteristics used by the cost model
// (Table 1) and the memory/packing constraints.
type GPUSpec struct {
	Type       GPUType
	PeakTFLOPS float64
	MemBytes   int64
	HourlyUSD  float64 // on-demand cloud price for the host instance
}

// Specs returns the built-in device table.
func Specs() map[GPUType]GPUSpec {
	return map[GPUType]GPUSpec{
		GTX1080Ti: {Type: GTX1080Ti, PeakTFLOPS: 11.3, MemBytes: 11 << 30, HourlyUSD: 0.60},
		K80:       {Type: K80, PeakTFLOPS: 4.1, MemBytes: 12 << 30, HourlyUSD: 0.90},
		V100:      {Type: V100, PeakTFLOPS: 125, MemBytes: 16 << 30, HourlyUSD: 3.06},
		CPUAVX512: {Type: CPUAVX512, PeakTFLOPS: 0.1, MemBytes: 4 << 30, HourlyUSD: 0.085},
		TPUv2:     {Type: TPUv2, PeakTFLOPS: 180, MemBytes: 64 << 30, HourlyUSD: 4.50},
	}
}

// Spec returns the spec for a GPU type.
func Spec(t GPUType) (GPUSpec, error) {
	s, ok := Specs()[t]
	if !ok {
		return GPUSpec{}, fmt.Errorf("profiler: unknown GPU type %q", t)
	}
	return s, nil
}

// Profile is the batching profile of one model on one GPU type.
type Profile struct {
	// ModelID names the model the profile was calibrated for. A deployment
	// gives a specialized variant its source's profile, not a copy, when
	// calibrating the variant would change only this field, so a shared
	// variant profile names its calibrated source, not the variant.
	ModelID string
	GPU     GPUType

	// Linear batching model (Eq. 1): BatchLatency(b) = Alpha*b + Beta.
	Alpha time.Duration // marginal cost per batched item
	Beta  time.Duration // fixed invocation cost

	// MaxBatch bounds the batch size (memory / framework limit).
	MaxBatch int

	// CPU-side work per item, overlappable with GPU execution (§6.3 OL).
	PreprocCPU  time.Duration
	PostprocCPU time.Duration

	// Memory accounting for placement: MemBase is weights + workspace;
	// MemPerItem is per-batch-slot activation memory.
	MemBase    int64
	MemPerItem int64

	// SMSaturation is the fraction of the GPU's compute the model actually
	// keeps busy at its operating batch sizes (0..1]. Small models launch
	// kernels that cannot fill every SM, so a fractional compute slice
	// barely slows them — the regime where spatial sharing beats temporal
	// duty cycles (D-STACK / ParvaGPU). Zero means "unknown": treated as 1
	// (the model saturates the GPU), which makes spatial planning maximally
	// conservative and keeps zero-value profiles behaving exactly as before.
	SMSaturation float64

	// points, when non-empty, overrides the linear model for b <= len:
	// points[b-1] is the measured latency at batch size b.
	points []time.Duration

	// lat is the dense memo table built by memoize: lat[b-1] = ℓ(b) for
	// b in 1..MaxBatch. Dispatch, drop policies, and squishy packing call
	// BatchLatency/MaxBatchWithin per request and per session per epoch;
	// the table turns those lookups into array reads. It is built once
	// (Validate and every profile-deriving constructor) and read-only
	// afterwards, so profiles stay safe to share across concurrent sweep
	// cells. Hand-built literals that never validate keep lat nil and fall
	// back to computing.
	lat []time.Duration
}

// memoize (re)builds the dense latency table from the underlying model.
// Callers that mutate Alpha/Beta/points after memoizing must call it again.
func (p *Profile) memoize() {
	if p.MaxBatch < 1 || p.MaxBatch > maxMemoBatch {
		p.lat = nil
		return
	}
	lat := make([]time.Duration, p.MaxBatch)
	for b := 1; b <= p.MaxBatch; b++ {
		l := p.rawBatchLatency(b)
		// Isotonic smoothing: the binary search in MaxBatchWithin assumes
		// ℓ(b) is monotone non-decreasing, but a noisy measured point table
		// can dip below an earlier entry and make the search land on a
		// batch size that misses the SLO. Running max is the identity on
		// monotone tables (goldens unaffected) and the tightest monotone
		// upper envelope otherwise.
		if b > 1 && l < lat[b-2] {
			l = lat[b-2]
		}
		lat[b-1] = l
	}
	p.lat = lat
}

// maxMemoBatch bounds the memo table so absurd MaxBatch values cannot
// balloon memory; beyond it every lookup computes directly, as before.
const maxMemoBatch = 1 << 16

// Validate checks profile invariants: positive costs, a usable batch range,
// and the monotonicity assumptions §6.1 relies on (latency non-decreasing
// in b; per-item latency ℓ(b)/b non-increasing). It (re)builds the memo
// table the checks read.
func (p *Profile) Validate() error {
	if err := p.checkModel(); err != nil {
		return err
	}
	p.memoize()
	return p.checkTable()
}

// checkModel checks the model ID and the fields the memo table is built
// from.
func (p *Profile) checkModel() error {
	if p.ModelID == "" {
		return fmt.Errorf("profiler: profile with empty model id")
	}
	if p.MaxBatch < 1 {
		return fmt.Errorf("profile %s/%s: MaxBatch %d < 1", p.ModelID, p.GPU, p.MaxBatch)
	}
	if p.Alpha <= 0 && len(p.points) == 0 {
		return fmt.Errorf("profile %s/%s: non-positive alpha", p.ModelID, p.GPU)
	}
	if p.Beta < 0 {
		return fmt.Errorf("profile %s/%s: negative beta", p.ModelID, p.GPU)
	}
	// The memo table is the isotonic (running-max) envelope of the raw
	// model, so the loop below can no longer observe a dip; a measured
	// table that decreases is still a profiling error worth rejecting
	// loudly here rather than silently flattening.
	for i := 1; i < len(p.points); i++ {
		if p.points[i] < p.points[i-1] {
			return fmt.Errorf("profile %s/%s: latency decreases at b=%d", p.ModelID, p.GPU, i+1)
		}
	}
	return nil
}

// checkTable checks ℓ(b) over the whole batch range.
func (p *Profile) checkTable() error {
	prev := time.Duration(0)
	prevPerItem := math.Inf(1)
	for b := 1; b <= p.MaxBatch; b++ {
		l := p.BatchLatency(b)
		if l <= 0 {
			return fmt.Errorf("profile %s/%s: non-positive latency at b=%d", p.ModelID, p.GPU, b)
		}
		if l < prev {
			return fmt.Errorf("profile %s/%s: latency decreases at b=%d", p.ModelID, p.GPU, b)
		}
		perItem := float64(l) / float64(b)
		if perItem > prevPerItem*(1+1e-9) {
			return fmt.Errorf("profile %s/%s: per-item latency increases at b=%d", p.ModelID, p.GPU, b)
		}
		prev, prevPerItem = l, perItem
	}
	return nil
}

// MemoBatches returns how many batch sizes the dense latency memo table
// covers: the table length once Validate has memoized, otherwise MaxBatch
// clamped to the memo bound (minimum 1). It is the natural arena-sizing
// figure for batch-shaped pools — no executed batch is ever larger.
func (p *Profile) MemoBatches() int {
	if n := len(p.lat); n > 0 {
		return n
	}
	n := p.MaxBatch
	if n > maxMemoBatch {
		n = maxMemoBatch
	}
	if n < 1 {
		n = 1
	}
	return n
}

// BatchLatency returns ℓ(b), the GPU execution latency of a batch of b.
// It panics for b < 1; b beyond MaxBatch extrapolates linearly (callers
// should clamp, but extrapolation keeps analysis code total).
func (p *Profile) BatchLatency(b int) time.Duration {
	if b < 1 {
		panic(fmt.Sprintf("profile %s: BatchLatency(%d)", p.ModelID, b))
	}
	if b <= len(p.lat) {
		return p.lat[b-1]
	}
	return p.rawBatchLatency(b)
}

// rawBatchLatency computes ℓ(b) from the point table or the linear model,
// bypassing the memo table (which it is also used to build).
func (p *Profile) rawBatchLatency(b int) time.Duration {
	if n := len(p.points); n > 0 {
		if b <= n {
			return p.points[b-1]
		}
		// Extrapolate from the tail slope of the measured points.
		var slope time.Duration
		if n >= 2 {
			slope = p.points[n-1] - p.points[n-2]
		} else {
			slope = p.points[0]
		}
		return p.points[n-1] + time.Duration(b-n)*slope
	}
	return time.Duration(b)*p.Alpha + p.Beta
}

// Throughput returns requests/second at batch size b.
func (p *Profile) Throughput(b int) float64 {
	return float64(b) / p.BatchLatency(b).Seconds()
}

// MaxBatchWithin returns the largest batch size (capped at MaxBatch) whose
// batch latency is at most lat, or 0 if even b=1 exceeds lat.
func (p *Profile) MaxBatchWithin(lat time.Duration) int {
	if p.BatchLatency(1) > lat {
		return 0
	}
	lo, hi := 1, p.MaxBatch
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.BatchLatency(mid) <= lat {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// SaturateBatch returns B_i = argmax{b : 2ℓ(b) <= slo} — the batch size a
// session saturating whole GPUs runs at (§4.1, §6.1), and the resulting
// per-GPU throughput T_i. Returns (0, 0) when no batch size is feasible.
func (p *Profile) SaturateBatch(slo time.Duration) (int, float64) {
	b := p.MaxBatchWithin(slo / 2)
	if b == 0 {
		return 0, 0
	}
	return b, p.Throughput(b)
}

// Spatial sharing model (ROADMAP item 3). A compute slice holding fraction
// f of the device's SMs runs a model slower by SpatialSlowdown(f, sat): a
// model that only saturates fraction sat of the GPU loses nothing until its
// slice shrinks below sat, then slows proportionally (the D-STACK knee).
// Co-resident partitions additionally contend for memory bandwidth and L2;
// each concurrently-executing co-resident inflates latency by
// SpatialInterference.

// SpatialInterference is the fractional latency inflation per active
// co-resident partition sharing a device.
const SpatialInterference = 0.05

// SpatialSlowdown returns the latency multiplier for running on a compute
// slice of fraction frac a model with SM saturation sat. sat outside (0, 1]
// means "unknown / saturates the whole GPU". frac <= 0 returns +Inf.
func SpatialSlowdown(frac, sat float64) float64 {
	if sat <= 0 || sat > 1 {
		sat = 1
	}
	if frac >= 1 {
		return 1
	}
	if frac <= 0 {
		return math.Inf(1)
	}
	if m := sat / frac; m > 1 {
		return m
	}
	return 1
}

// InterferenceFactor returns the latency multiplier from coResidents other
// active partitions executing concurrently on the same device.
func InterferenceFactor(coResidents int) float64 {
	if coResidents <= 0 {
		return 1
	}
	return 1 + SpatialInterference*float64(coResidents)
}

// SliceProfile returns a profile with every GPU latency scaled for execution
// on a compute slice of fraction frac alongside coResidents other active
// partitions. A full slice with no co-residents returns p itself (profiles
// are read-only once validated, so sharing is safe).
func (p *Profile) SliceProfile(frac float64, coResidents int) *Profile {
	m := SpatialSlowdown(frac, p.SMSaturation) * InterferenceFactor(coResidents)
	if m <= 1 {
		return p
	}
	if math.IsInf(m, 1) {
		panic(fmt.Sprintf("profile %s: SliceProfile(frac=%v)", p.ModelID, frac))
	}
	q := *p
	q.Alpha = time.Duration(float64(p.Alpha) * m)
	q.Beta = time.Duration(float64(p.Beta) * m)
	if len(p.points) > 0 {
		q.points = make([]time.Duration, len(p.points))
		for i, v := range p.points {
			q.points[i] = time.Duration(float64(v) * m)
		}
	}
	q.memoize()
	return &q
}

// WithPoints returns a copy of p that uses the given measured latency table
// (points[b-1] = ℓ(b)).
func (p *Profile) WithPoints(points []time.Duration) *Profile {
	q := *p
	q.points = append([]time.Duration(nil), points...)
	if len(q.points) > 0 {
		q.MaxBatch = len(q.points)
	}
	q.memoize()
	return &q
}

// Split divides the profile into a prefix part and a suffix part for prefix
// batching (§6.3). flopFrac is the fraction of the model's compute in the
// prefix. Alpha splits proportionally to compute; Beta splits with the same
// fraction but the suffix keeps at least a minimal invocation cost, since a
// suffix still launches kernels.
func (p *Profile) Split(flopFrac float64) (prefix, suffix Profile) {
	if flopFrac < 0 {
		flopFrac = 0
	}
	if flopFrac > 1 {
		flopFrac = 1
	}
	// A suffix is a few tiny layers: its invocation cost is kernel-launch
	// overhead, a small fraction of the full model's fixed cost.
	minBeta := p.Beta / 100
	prefix = *p
	suffix = *p
	prefix.points, suffix.points = nil, nil
	prefix.ModelID = p.ModelID + "#prefix"
	suffix.ModelID = p.ModelID + "#suffix"
	prefix.Alpha = time.Duration(float64(p.Alpha) * flopFrac)
	suffix.Alpha = p.Alpha - prefix.Alpha
	suffix.Beta = time.Duration(float64(p.Beta) * (1 - flopFrac))
	if suffix.Beta < minBeta {
		suffix.Beta = minBeta
	}
	prefix.Beta = p.Beta - suffix.Beta
	if prefix.Beta < 0 {
		prefix.Beta = 0
	}
	if prefix.Alpha < time.Nanosecond {
		prefix.Alpha = time.Nanosecond
	}
	if suffix.Alpha < time.Nanosecond {
		suffix.Alpha = time.Nanosecond
	}
	// CPU work stays with the whole request path: preproc before the
	// prefix, postproc after the suffix.
	prefix.PostprocCPU = 0
	suffix.PreprocCPU = 0
	prefix.memoize()
	suffix.memoize()
	return prefix, suffix
}

// WithCPUOverhead returns a copy whose batch latency includes an extra
// per-item CPU cost. The control plane plans with such adjusted profiles so
// that CPU work the pipeline cannot hide (postprocessing always; pre-
// processing too when overlap is disabled) is charged against the SLO.
func (p *Profile) WithCPUOverhead(perItem time.Duration) *Profile {
	if perItem <= 0 {
		return p
	}
	q := *p
	q.Alpha += perItem
	if len(p.points) > 0 {
		q.points = make([]time.Duration, len(p.points))
		for i, v := range p.points {
			q.points[i] = v + time.Duration(i+1)*perItem
		}
	}
	q.memoize()
	return &q
}

// DB stores profiles keyed by (model, GPU type).
type DB struct {
	profiles map[string]*Profile
}

func key(modelID string, gpu GPUType) string { return modelID + "@" + string(gpu) }

// NewDB returns an empty profile database.
func NewDB() *DB {
	return &DB{profiles: make(map[string]*Profile)}
}

// Put validates and stores a profile, replacing any existing entry.
func (db *DB) Put(p *Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	db.profiles[key(p.ModelID, p.GPU)] = p
	return nil
}

// Get returns the profile for (modelID, gpu).
func (db *DB) Get(modelID string, gpu GPUType) (*Profile, error) {
	p, ok := db.profiles[key(modelID, gpu)]
	if !ok {
		return nil, fmt.Errorf("profiler: no profile for %s on %s", modelID, gpu)
	}
	return p, nil
}

// MustGet is Get but panics on error.
func (db *DB) MustGet(modelID string, gpu GPUType) *Profile {
	p, err := db.Get(modelID, gpu)
	if err != nil {
		panic(err)
	}
	return p
}
