// Package cluster wires the full Nexus deployment together on the
// simulation clock: an elastic backend pool, a frontend, the global
// scheduler, workload generators, complex-query chaining, and metric
// collection. It also instantiates the comparison systems of §7.2 —
// Clipper-like and TF-Serving-like serving — and the "Nexus-parallel"
// ablation of Figure 14, all as configurations of the same runtime with
// different feature switches.
package cluster

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"nexus/internal/backend"
	"nexus/internal/forensics"
	"nexus/internal/frontend"
	"nexus/internal/globalsched"
	"nexus/internal/gpusim"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/queryopt"
	"nexus/internal/scheduler"
	"nexus/internal/simclock"
	"nexus/internal/telemetry"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// System identifies which serving system a deployment runs.
type System string

// The systems compared in §7.
const (
	Nexus         System = "nexus"
	NexusParallel System = "nexus-parallel" // Figure 14 ablation
	Clipper       System = "clipper"
	TFServing     System = "tfserving"
)

// Features are the Nexus ablation switches (§7.3). They are ignored for
// the baseline systems, whose behaviour is fixed.
type Features struct {
	PrefixBatch   bool `json:"prefix_batch"`   // PB
	Squishy       bool `json:"squishy"`        // SS
	EarlyDrop     bool `json:"early_drop"`     // ED
	Overlap       bool `json:"overlap"`        // OL
	QueryAnalysis bool `json:"query_analysis"` // QA
}

// AllFeatures returns full Nexus.
func AllFeatures() Features {
	return Features{PrefixBatch: true, Squishy: true, EarlyDrop: true, Overlap: true, QueryAnalysis: true}
}

// Config describes a deployment.
type Config struct {
	System   System
	Features Features
	GPUs     int              // pool capacity
	GPU      profiler.GPUType // device type (default GTX1080Ti)
	Epoch    time.Duration    // control plane period (default 30s)
	NetDelay time.Duration    // one-way frontend<->backend latency (>=0; -1 = default)
	Seed     int64
	// Warmup excludes the initial interval from statistics (model loads,
	// pipeline fill). Default 2s; negative means no warmup at all (every
	// request is measured — useful for trace/metrics reconciliation).
	Warmup time.Duration
	// OnEpoch, when set, observes every control-plane epoch (telemetry).
	OnEpoch func(epoch int, stats scheduler.MoveStats, gpusInUse int)
	// FixedCluster treats the GPU pool as a fixed-size cluster whose spare
	// capacity should be spread across plan nodes (the §7.3/§7.5 fixed
	// 16-GPU experiments). Leave false for elastic deployments where GPU
	// usage should track load (Figure 13).
	FixedCluster bool
	// TraceCapacity, when positive, records the last N request lifecycle
	// events (arrivals, routes, enqueues, batch executions, completions,
	// drops); read them via Deployment.Tracer. Warmup requests are filtered
	// out so trace counts agree with the metrics recorder.
	TraceCapacity int
	// Audit, when true, keeps the control-plane audit log: per-epoch
	// placement records, query budget splits, and early-drop window
	// decisions; read it via Deployment.Audit.
	Audit bool
	// DeferDropped switches Nexus to the paper's alternative service model
	// (§5): requests that miss their deadline window run later at low
	// priority instead of being discarded.
	DeferDropped bool
	// PlanningSlack overrides the control plane's SLO slack (0 = derive
	// from the network delay; negative = no slack). For ablations.
	PlanningSlack time.Duration
	// Frontends is the number of data-plane frontend replicas requests are
	// load-balanced across (§5's "distributed frontend"; default 1).
	Frontends int
	// Heartbeat enables failure detection: backends beat at this period and
	// the control plane declares one dead after LeaseMisses missed beats,
	// repairing routes and acquiring a replacement immediately. 0 (the
	// default) disables detection — crashes are then noticed only at epoch
	// boundaries, and every pre-existing experiment stays bit-identical.
	Heartbeat time.Duration
	// LeaseMisses is how many beats may be missed before a backend is
	// declared dead (default 3).
	LeaseMisses int
	// SessionTimelines records per-session good/bad completion series
	// (per-second), read back via SessionTimeline.
	SessionTimelines bool
	// PlannerShards partitions epoch planning across this many concurrent
	// planner shards. 0 (the default) and 1 both mean one unpartitioned
	// shard; shard tags and counters appear only at 2 or more.
	PlannerShards int
	// PlanHysteresis is the relative rate band within which a planner shard
	// skips re-packing and carries its plan forward (0 disables skipping;
	// applies at any shard count).
	PlanHysteresis float64
	// Deprecated: DeltaRouting is ignored. Every epoch pushes routing
	// updates to frontends as per-session deltas.
	DeltaRouting bool
	// Telemetry enables the live telemetry plane: a streaming metrics
	// registry sampled every Telemetry.Interval of virtual time, the
	// alerting engine, and per-epoch scheduler health reports; read them
	// via Deployment.Telemetry. nil (the default) disables the plane
	// entirely — no instruments, no sampling tick, goldens unchanged.
	Telemetry *telemetry.Config
	// Forensics enables the anomaly-triggered flight recorder: every new
	// firing alert freezes the last window of spans, audit records, chaos
	// edges, and metric samples into one dump bundle (read them via
	// Deployment.Flight). Setting it implies tracing (a large default ring
	// if TraceCapacity is unset), the audit log, and the telemetry plane
	// with default rules if Telemetry is nil. Exec-latency windows
	// additionally carry exemplar request IDs. nil (the default) changes
	// nothing — goldens stay byte-identical.
	Forensics *forensics.Config

	// Degraded-mode survival layer. Every knob below is off by default and
	// nil-no-op when off: a deployment that sets none of them runs the
	// exact pre-existing instruction stream (goldens stay byte-identical).

	// RouteLeaseTTL arms routing-table leases on every frontend: a table
	// that has not seen a control-plane push (full, delta, or empty-epoch
	// renewal) within the TTL is stale. With ServeStale the frontend keeps
	// routing on it (counting staleness); without, stale dispatches drop
	// unroutable — the lease-expiry-without-repair posture.
	RouteLeaseTTL time.Duration
	ServeStale    bool
	// RetryBudget re-sends a dispatch that hit a dead backend, a lost
	// unit, or a cut link to a surviving replica, up to RetryBudget times
	// per request, waiting RetryBackoff<<(attempt-1) before each; a zero
	// backoff re-sends at once (budget 1, backoff 0 is retry-once).
	RetryBudget  int
	RetryBackoff time.Duration
	// BreakerThreshold arms per-backend circuit breakers on every
	// frontend: that many consecutive dispatch failures open a backend's
	// breaker and traffic routes around it until a half-open probe
	// succeeds after BreakerCooloff (default 1s).
	BreakerThreshold int
	BreakerCooloff   time.Duration
	// Admission installs priority-aware token-bucket admission control:
	// per-session sustained rate + burst, with Priority > 0 sessions
	// drawing from the shared reserve when their bucket runs dry, so
	// overload sheds the lowest-value sessions first (DropAdmission).
	Admission map[string]frontend.AdmissionConfig
	// AdmissionReserveRate/Burst size the shared priority reserve bucket.
	AdmissionReserveRate  float64
	AdmissionReserveBurst float64
	// RecoveryMaxRouteChanges rate-limits the first post-outage route
	// publish to this many per-session changes per push; 0 disables the
	// cap.
	RecoveryMaxRouteChanges int
	// Placement selects the packer's multiplexing axes: temporal duty
	// cycles only (the zero value — every pre-existing experiment is
	// unchanged), spatial compute slices, or the hybrid policy that picks
	// the cheaper of the two per session.
	Placement scheduler.Placement
	// SliceGranularity is the number of equal compute-slice steps a GPU can
	// be carved into for spatial placement (default 8; requires Placement).
	SliceGranularity int
}

// degraded reports whether any degraded-mode survival knob is set; the
// telemetry sampler keys its new instruments on it so pre-existing
// deployments keep their exact metric key sets.
func (c *Config) degraded() bool {
	return c.RouteLeaseTTL > 0 || c.BreakerThreshold > 0 ||
		c.Admission != nil || c.RecoveryMaxRouteChanges > 0
}

// Deployment is a running simulated cluster.
type Deployment struct {
	Clock    *simclock.Clock
	Pool     *Pool
	Sched    *globalsched.Scheduler
	Recorder *metrics.Recorder

	// Frontend is the first data-plane frontend (always present);
	// Frontends holds every replica when Config.Frontends > 1.
	Frontend  *frontend.Frontend
	Frontends []*frontend.Frontend
	nextFE    int

	cfg      Config
	rng      *rand.Rand
	profiles map[string]*profiler.Profile
	mdb      *model.DB

	collecting bool
	seq        uint64
	queryTrack map[uint64]*queryInstance
	queryMeta  map[string]*stageMeta // stage session ID -> meta

	loads      []sessionLoad
	queryLoads []queryLoad
	// gens holds the running workload generators (filled by Run), so fault
	// injection can modulate offered rates mid-run (faults.Surge).
	gens []*workload.Generator

	// Interval series for Figure 13.
	Arrivals *metrics.TimeSeries
	BadEvts  *metrics.TimeSeries
	GoodEvts *metrics.TimeSeries
	GPUsUsed *metrics.TimeSeries

	// Query-level outcomes (end-to-end).
	queryStats map[string]*metrics.SessionStats

	// ignored marks in-flight requests issued during warmup so their
	// completions do not pollute statistics.
	ignored map[uint64]struct{}

	// stageSessions marks per-stage query sessions, which are excluded
	// from the end-to-end BadRate/Goodput (queries are counted once, as
	// whole-query outcomes).
	stageSessions map[string]bool

	// unroutable counts requests dropped because no route or unit existed
	// when they arrived (admission-control drops at the frontend).
	unroutable uint64

	// Per-session good/bad completion timelines (nil unless
	// Config.SessionTimelines).
	sessGood map[string]*metrics.TimeSeries
	sessBad  map[string]*metrics.TimeSeries

	// tracer records request lifecycle events when enabled (nil = off).
	tracer *trace.Tracer
	// audit holds the control-plane audit log when enabled (nil = off).
	audit *trace.Audit
	// telem is the live telemetry collector (nil = off); telemSample holds
	// the sampler's pull-side state.
	telem       *telemetry.Collector
	telemSample *telemetrySampler
	// flight is the anomaly-triggered dump recorder (nil = off).
	flight *forensics.Recorder
}

type sessionLoad struct {
	spec globalsched.SessionSpec
	proc workload.Process
}

type queryLoad struct {
	spec globalsched.QuerySpec
	proc workload.Process
}

type stageMeta struct {
	queryName string
	children  []stageChild
}

type stageChild struct {
	session string
	gamma   float64
	carry   float64 // fractional fan-out accumulator
}

type queryInstance struct {
	queryName   string
	deadline    time.Duration
	outstanding int
	bad         bool
}

// New creates a deployment.
func New(cfg Config) (*Deployment, error) {
	if cfg.GPUs < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 GPU")
	}
	if cfg.GPU == "" {
		cfg.GPU = profiler.GTX1080Ti
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = globalsched.DefaultEpoch
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 2 * time.Second
	} else if cfg.Warmup < 0 {
		cfg.Warmup = 0
	}
	if cfg.Forensics != nil {
		// The flight recorder needs all three planes: spans to dump, audit
		// records to correlate, and the alert engine to trigger on.
		if cfg.TraceCapacity <= 0 {
			cfg.TraceCapacity = 1 << 18
		}
		cfg.Audit = true
		if cfg.Telemetry == nil {
			cfg.Telemetry = &telemetry.Config{}
		}
	}
	mdb := model.Catalog()
	d := &Deployment{
		Clock:         simclock.New(),
		Recorder:      metrics.NewRecorder(),
		cfg:           cfg,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		mdb:           mdb,
		queryTrack:    make(map[uint64]*queryInstance),
		queryMeta:     make(map[string]*stageMeta),
		Arrivals:      metrics.NewTimeSeries(time.Second),
		BadEvts:       metrics.NewTimeSeries(time.Second),
		GoodEvts:      metrics.NewTimeSeries(time.Second),
		GPUsUsed:      metrics.NewTimeSeries(time.Second),
		queryStats:    make(map[string]*metrics.SessionStats),
		ignored:       make(map[uint64]struct{}),
		stageSessions: make(map[string]bool),
	}
	if cfg.TraceCapacity > 0 {
		d.tracer = trace.New(cfg.TraceCapacity)
		// Warmup traffic is excluded from metrics; filter it out of the
		// trace too, so per-cause event counts reconcile exactly with the
		// recorder. Standalone warmup requests sit in d.ignored while in
		// flight; warmup query stages are tracked with a blank query name.
		d.tracer.SetFilter(func(e trace.Event) bool {
			if _, warm := d.ignored[e.ReqID]; warm {
				return false
			}
			if qi, ok := d.queryTrack[e.ReqID]; ok && qi.queryName == "" {
				return false
			}
			return true
		})
	}
	if cfg.Audit {
		d.audit = trace.NewAudit()
	}
	if cfg.Telemetry != nil {
		d.telem = telemetry.NewCollector(*cfg.Telemetry)
		d.telemSample = newTelemetrySampler(d)
	}
	if cfg.Forensics != nil {
		d.flight = forensics.New(*cfg.Forensics)
		d.telem.SetOnSample(d.flight.ObserveSample)
		d.telem.SetOnAlert(func(a telemetry.Alert) {
			d.flight.Trigger(a.At, a, d.tracer, d.audit)
		})
	}
	if cfg.SessionTimelines {
		d.sessGood = make(map[string]*metrics.TimeSeries)
		d.sessBad = make(map[string]*metrics.TimeSeries)
	}
	if err := d.rebuildProfiles(); err != nil {
		return nil, err
	}
	beCfg, devMode := d.runtimeConfig()
	if d.tracer != nil {
		beCfg.OnBatch = func(backendID, unitID string, batch []backend.Request, inc uint64, gpuTime time.Duration) {
			at := d.Clock.Now()
			for _, r := range batch {
				d.tracer.Record(trace.Event{
					At: at, Kind: trace.Execute, ReqID: r.ID,
					Session: r.Session, Backend: backendID, Unit: unitID,
					Batch: len(batch), Dur: gpuTime, Inc: inc,
				})
			}
		}
	}
	if d.telem != nil {
		// Execute latency is the one push-style instrument: batch grain (not
		// request grain), composed with the tracer's hook when both are on.
		// Under forensics the window additionally carries the leading request
		// ID of its worst batch, so a hot p99 cell links back to a trace span;
		// without forensics the exemplar field never appears and the snapshot
		// stream stays byte-identical to its goldens.
		prevOnBatch := beCfg.OnBatch
		exemplars := cfg.Forensics != nil
		beCfg.OnBatch = func(backendID, unitID string, batch []backend.Request, inc uint64, gpuTime time.Duration) {
			if prevOnBatch != nil {
				prevOnBatch(backendID, unitID, batch, inc, gpuTime)
			}
			w := d.telemSample.execWindow(backendID)
			if exemplars && len(batch) > 0 {
				w.ObserveExemplar(gpuTime, batch[0].ID)
			} else {
				w.Observe(gpuTime)
			}
		}
	}
	if d.audit != nil {
		beCfg.OnDropWindow = func(backendID, unitID string, window, dropped int) {
			d.audit.RecordDropWindow(trace.DropWindowRecord{
				AtMS: trace.MS(d.Clock.Now()), Backend: backendID, Unit: unitID,
				Window: window, Dropped: dropped,
			})
		}
	}
	d.Pool = NewPool(d.Clock, cfg.GPUs, cfg.GPU, devMode, beCfg, func(beID string) backend.CompletionFunc {
		return func(req workload.Request, outcome backend.Outcome, at time.Duration) {
			d.requestDone(req, outcome, at, beID)
		}
	})
	nFE := cfg.Frontends
	if nFE < 1 {
		nFE = 1
	}
	for i := 0; i < nFE; i++ {
		fe := frontend.New(d.Clock, d.Pool.backends, cfg.NetDelay, func(req workload.Request, reason backend.Outcome) {
			if reason == backend.DropUnroutable {
				d.unroutable++
			}
			// Frontend drops never reached a backend; attribution stays
			// empty and the cause identifies the admission path.
			d.requestDone(req, reason, d.Clock.Now(), "")
		})
		fe.SetTracer(d.tracer)
		if cfg.RouteLeaseTTL > 0 {
			fe.EnableRouteLease(cfg.RouteLeaseTTL, cfg.ServeStale)
		}
		if cfg.RetryBudget > 0 {
			fe.EnableRetry(cfg.RetryBudget, cfg.RetryBackoff)
		}
		if cfg.BreakerThreshold > 0 {
			cooloff := cfg.BreakerCooloff
			if cooloff <= 0 {
				cooloff = time.Second
			}
			fe.EnableBreakers(cfg.BreakerThreshold, cooloff)
			if d.audit != nil {
				feLabel := fmt.Sprintf("%d", i)
				fe.SetBreakerObserver(func(at time.Duration, beID, from, to string) {
					d.audit.RecordChaos(trace.ChaosRecord{
						AtMS: trace.MS(at), Kind: "breaker",
						Frontend: feLabel, Backend: beID, From: from, To: to,
					})
				})
			}
		}
		if cfg.Admission != nil {
			sids := make([]string, 0, len(cfg.Admission))
			for sid := range cfg.Admission {
				sids = append(sids, sid)
			}
			sort.Strings(sids)
			for _, sid := range sids {
				fe.SetAdmission(sid, cfg.Admission[sid])
			}
			if cfg.AdmissionReserveRate > 0 || cfg.AdmissionReserveBurst > 0 {
				fe.SetAdmissionReserve(cfg.AdmissionReserveRate, cfg.AdmissionReserveBurst)
			}
		}
		d.Frontends = append(d.Frontends, fe)
	}
	d.Frontend = d.Frontends[0]
	d.Sched = globalsched.New(d.Clock, d.Pool, d.Frontends, d.mdb, d.profiles, d.controlConfig())
	return d, nil
}

// dispatch load-balances a request across the frontend replicas.
func (d *Deployment) dispatch(req workload.Request) {
	fe := d.Frontends[d.nextFE]
	d.nextFE = (d.nextFE + 1) % len(d.Frontends)
	fe.Dispatch(req)
}

// ModelDB exposes the deployment's model database, so callers can register
// specialized variants before adding sessions.
func (d *Deployment) ModelDB() *model.DB { return d.mdb }

// RefreshProfiles derives profiles for models the caller registered since
// the last refresh (e.g. specialized families).
func (d *Deployment) RefreshProfiles() error { return d.rebuildProfiles() }

// rebuildProfiles profiles, on the deployment's GPU type only, each
// calibrated model it has not profiled yet. The model DB never replaces a
// registered model, so a derived profile stays current: set-up cost grows
// with the models added, not with the models registered so far.
func (d *Deployment) rebuildProfiles() error {
	if d.profiles == nil {
		d.profiles = make(map[string]*profiler.Profile)
	}
	for _, id := range d.mdb.IDs() {
		if _, done := d.profiles[id]; done || !profiler.Calibrated(id, d.cfg.GPU) {
			continue
		}
		p, err := profiler.Calibrate(d.mdb.MustGet(id), d.cfg.GPU)
		if err != nil {
			return err
		}
		d.profiles[id] = p
	}
	return nil
}

// Tracer returns the deployment's lifecycle tracer (nil unless enabled
// via Config.TraceCapacity).
func (d *Deployment) Tracer() *trace.Tracer { return d.tracer }

// Audit returns the control-plane audit log (nil unless enabled via
// Config.Audit).
func (d *Deployment) Audit() *trace.Audit { return d.audit }

// Telemetry returns the live telemetry collector (nil unless enabled via
// Config.Telemetry).
func (d *Deployment) Telemetry() *telemetry.Collector { return d.telem }

// Flight returns the anomaly-triggered flight recorder (nil unless enabled
// via Config.Forensics).
func (d *Deployment) Flight() *forensics.Recorder { return d.flight }

// runtimeConfig maps the system kind to backend behaviour (§7.2).
func (d *Deployment) runtimeConfig() (backend.Config, gpusim.Mode) {
	var policy backend.DropPolicy = backend.LazyDrop{}
	switch d.cfg.System {
	case Nexus, NexusParallel:
		if d.cfg.Features.EarlyDrop {
			policy = backend.EarlyDrop{}
		}
	}
	switch d.cfg.System {
	case Nexus:
		return backend.Config{
			Policy:       policy,
			Overlap:      d.cfg.Features.Overlap,
			Discipline:   backend.RoundRobin,
			DeferDropped: d.cfg.DeferDropped,
		}, gpusim.Exclusive
	case NexusParallel:
		return backend.Config{
			Policy:       policy,
			Overlap:      d.cfg.Features.Overlap,
			Discipline:   backend.Parallel,
			DeferDropped: d.cfg.DeferDropped,
		}, gpusim.Shared
	case Clipper:
		// Independent containers per model interleaving on the GPU.
		return backend.Config{
			Policy:     backend.LazyDrop{},
			Overlap:    false,
			Discipline: backend.Parallel,
		}, gpusim.Shared
	case TFServing:
		// One process executing models round-robin, no deadline awareness
		// beyond a safe max batch, serial pre/post-processing.
		return backend.Config{
			Policy:     backend.LazyDrop{},
			Overlap:    false,
			Discipline: backend.RoundRobin,
		}, gpusim.Exclusive
	default:
		return backend.Config{}, gpusim.Exclusive
	}
}

// controlConfig maps the system kind to control-plane behaviour.
func (d *Deployment) controlConfig() globalsched.Config {
	beCfg, _ := d.runtimeConfig()
	netDelay := d.cfg.NetDelay
	if netDelay < 0 {
		netDelay = frontend.DefaultNetDelay
	}
	spec, err := profiler.Spec(d.cfg.GPU)
	if err != nil {
		spec = profiler.Specs()[profiler.GTX1080Ti]
	}
	cfg := globalsched.Config{
		Epoch:   d.cfg.Epoch,
		OnEpoch: d.cfg.OnEpoch,
		Sched: scheduler.Config{
			GPUMemBytes:      spec.MemBytes,
			Placement:        d.cfg.Placement,
			SliceGranularity: d.cfg.SliceGranularity,
		},
		Overlap:        beCfg.Overlap,
		CPUWorkers:     beCfg.CPUWorkers,
		SpreadReplicas: d.cfg.FixedCluster,
		// Slack for the dispatch hop plus event-granularity margin.
		PlanningSlack: 2*netDelay + 2*time.Millisecond,
	}
	if d.cfg.PlanningSlack != 0 {
		cfg.PlanningSlack = d.cfg.PlanningSlack
	}
	switch d.cfg.System {
	case Nexus, NexusParallel:
		cfg.QueryAnalysis = d.cfg.Features.QueryAnalysis
		cfg.PrefixBatch = d.cfg.Features.PrefixBatch
		cfg.Squishy = d.cfg.Features.Squishy
		if !cfg.Squishy {
			cfg.ObliviousGPUs = d.cfg.GPUs
		}
	case Clipper, TFServing:
		// §7.2: batch-oblivious scheduler, even latency splits, whole-model
		// granularity.
		cfg.QueryAnalysis = false
		cfg.PrefixBatch = false
		cfg.Squishy = false
		cfg.ObliviousGPUs = d.cfg.GPUs
	}
	// Control-plane scaling knobs are orthogonal to the system kind.
	cfg.Shards = d.cfg.PlannerShards
	cfg.PlanHysteresis = d.cfg.PlanHysteresis
	cfg.RecoveryMaxRouteChanges = d.cfg.RecoveryMaxRouteChanges
	// Failure detection is orthogonal to the system kind.
	cfg.Heartbeat = d.cfg.Heartbeat
	cfg.LeaseMisses = d.cfg.LeaseMisses
	cfg.Audit = d.audit
	if d.telem != nil {
		cfg.PlanWallClock = d.telem.WallTimings()
		// Capture the per-epoch health report before handing the epoch to
		// the user's observer.
		userOnEpoch := cfg.OnEpoch
		cfg.OnEpoch = func(epoch int, stats scheduler.MoveStats, gpusInUse int) {
			d.telem.AddHealth(d.Sched.Explain())
			if userOnEpoch != nil {
				userOnEpoch(epoch, stats, gpusInUse)
			}
		}
	}
	return cfg
}

// AddSession adds a standalone session and its arrival process (nil proc =
// uniform arrivals at the expected rate).
func (d *Deployment) AddSession(spec globalsched.SessionSpec, proc workload.Process) error {
	if err := d.Sched.AddSession(spec); err != nil {
		return err
	}
	if proc == nil {
		proc = workload.Uniform{Rate: spec.ExpectedRate}
	}
	d.loads = append(d.loads, sessionLoad{spec: spec, proc: proc})
	return nil
}

// AddQuery adds a complex query load (nil proc = uniform arrivals at the
// expected root rate). Stage fan-out follows the query's gammas.
func (d *Deployment) AddQuery(spec globalsched.QuerySpec, proc workload.Process) error {
	if err := d.Sched.AddQuery(spec); err != nil {
		return err
	}
	if proc == nil {
		proc = workload.Uniform{Rate: spec.ExpectedRate}
	}
	d.queryLoads = append(d.queryLoads, queryLoad{spec: spec, proc: proc})
	d.indexQuery(spec)
	return nil
}

// indexQuery records stage metadata for completion-driven fan-out.
func (d *Deployment) indexQuery(spec globalsched.QuerySpec) {
	q := spec.Query
	var walk func(n *queryopt.Node)
	walk = func(n *queryopt.Node) {
		d.stageSessions[q.Name+"/"+n.Name] = true
		meta := &stageMeta{queryName: q.Name}
		for _, e := range n.Edges {
			meta.children = append(meta.children, stageChild{
				session: q.Name + "/" + e.Child.Name,
				gamma:   e.Gamma,
			})
			walk(e.Child)
		}
		d.queryMeta[q.Name+"/"+n.Name] = meta
	}
	walk(q.Root)
}

// Run executes the deployment for the given duration of virtual time
// (after warmup) and returns the end-to-end bad rate across standalone
// sessions and queries.
func (d *Deployment) Run(duration time.Duration) (float64, error) {
	if err := d.Sched.RunEpoch(); err != nil {
		return 0, err
	}
	d.Sched.Start()
	horizon := d.cfg.Warmup + duration
	// Statistics begin after warmup.
	d.Clock.At(d.cfg.Warmup, func() { d.collecting = true })
	// Start generators (kept so fault injection can modulate their rates).
	for _, l := range d.loads {
		l := l
		d.gens = append(d.gens, workload.Start(d.Clock, d.rng, l.spec.ID, l.spec.SLO, l.proc, horizon, func(r workload.Request) {
			d.dispatchStandalone(r)
		}))
	}
	for _, ql := range d.queryLoads {
		ql := ql
		// The generator's SLO field is the whole-query SLO; per-stage
		// deadlines are assigned at dispatch.
		d.gens = append(d.gens, workload.Start(d.Clock, d.rng, ql.spec.Query.Name, ql.spec.Query.SLO, ql.proc, horizon, func(r workload.Request) {
			d.startQuery(ql.spec, r)
		}))
	}
	// GPU usage sampling.
	sampler := d.Clock.StartTicker(time.Second, func() {
		d.GPUsUsed.Add(d.Clock.Now(), float64(d.Pool.InUse()))
	})
	// Telemetry sampling, aligned to the end of warmup so window deltas
	// never straddle the uncounted fill phase.
	var telemTicker *simclock.Ticker
	if d.telem != nil {
		iv := d.telem.Interval()
		telemTicker = d.Clock.StartTickerAt(d.cfg.Warmup+iv, iv, d.telemSample.sample)
	}
	d.Clock.RunUntil(horizon)
	sampler.Stop()
	if telemTicker != nil {
		telemTicker.Stop()
	}
	d.Sched.Stop()
	// Drain in-flight work so counts settle.
	d.Clock.Run()
	if d.telem != nil {
		// One final sample after the drain so the last snapshot carries the
		// settled totals.
		d.telemSample.sample()
	}
	return d.BadRate(), nil
}

// BadRate returns the overall fraction of finished work that was bad:
// standalone session requests plus whole-query outcomes. Query stage
// invocations are folded into their query outcome, not counted separately.
func (d *Deployment) BadRate() float64 {
	sent, bad := d.totals()
	if sent == 0 {
		return 0
	}
	return float64(bad) / float64(sent)
}

// Goodput returns good completions per second of measured time: standalone
// requests plus whole queries served within their SLOs.
func (d *Deployment) Goodput(measured time.Duration) float64 {
	sent, bad := d.totals()
	return float64(sent-bad) / measured.Seconds()
}

func (d *Deployment) totals() (sent, bad uint64) {
	for _, sid := range d.Recorder.SessionIDs() {
		if d.stageSessions[sid] {
			continue
		}
		s := d.Recorder.Session(sid)
		sent += s.Sent
		bad += s.Bad()
	}
	for _, qs := range d.queryStats {
		sent += qs.Sent
		bad += qs.Bad()
	}
	return sent, bad
}

// QueryStats returns end-to-end outcomes for a query by name.
func (d *Deployment) QueryStats(name string) *metrics.SessionStats {
	qs, ok := d.queryStats[name]
	if !ok {
		qs = &metrics.SessionStats{}
		d.queryStats[name] = qs
	}
	return qs
}

// Unroutable returns the number of frontend admission-control drops.
func (d *Deployment) Unroutable() uint64 { return d.unroutable }

// AvgGPUsUsed returns the mean sampled GPU usage.
func (d *Deployment) AvgGPUsUsed() float64 {
	n := d.GPUsUsed.Len()
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.GPUsUsed.Mean(i)
	}
	return sum / float64(n)
}

// nextID allocates a deployment-unique request ID.
func (d *Deployment) nextID() uint64 {
	d.seq++
	return d.seq
}

func (d *Deployment) dispatchStandalone(r workload.Request) {
	r.ID = d.nextID()
	if d.collecting {
		d.Recorder.Session(r.Session).Sent++
		d.Arrivals.Add(d.Clock.Now(), 1)
	} else {
		// Still count it as in-flight work but not in stats: mark by
		// tracking zero; simplest is to tag via map of ignored IDs. Marked
		// before recording, so the tracer's warmup filter sees it.
		d.ignored[r.ID] = struct{}{}
	}
	d.tracer.Record(trace.Event{At: d.Clock.Now(), Kind: trace.Arrive, ReqID: r.ID, Session: r.Session})
	d.dispatch(r)
}

// requestDone is the single completion sink for all backends and the
// frontend's drop path. beID names the backend that reported the outcome
// ("" for frontend-side drops that never reached one).
func (d *Deployment) requestDone(req workload.Request, outcome backend.Outcome, at time.Duration, beID string) {
	if _, skip := d.ignored[req.ID]; skip {
		delete(d.ignored, req.ID)
		return
	}
	if qi, ok := d.queryTrack[req.ID]; ok {
		delete(d.queryTrack, req.ID)
		d.stageDone(qi, req, outcome, at, beID)
		return
	}
	s := d.Recorder.Session(req.Session)
	d.traceDone(req, outcome, at, beID)
	bad := true
	switch {
	case outcome.Bad():
		d.countLoss(s, outcome)
		d.BadEvts.Add(at, 1)
	case at > req.Deadline:
		s.Missed++
		s.Completed++
		s.Latency.Record(at - req.Arrival)
		d.BadEvts.Add(at, 1)
	default:
		s.Completed++
		s.Latency.Record(at - req.Arrival)
		d.GoodEvts.Add(at, 1)
		bad = false
	}
	d.markTimeline(req.Session, bad, at)
}

// traceDone records a request's terminal trace event: a Drop carrying its
// cause (the outcome taxonomy name) and the backend that reported it, or a
// Complete. Dur is total time in system.
func (d *Deployment) traceDone(req workload.Request, outcome backend.Outcome, at time.Duration, beID string) {
	if d.tracer == nil {
		return
	}
	if outcome.Bad() {
		d.tracer.Record(trace.Event{At: at, Kind: trace.Drop, ReqID: req.ID, Session: req.Session,
			Backend: beID, Cause: outcome.String(), Dur: at - req.Arrival})
	} else {
		d.tracer.Record(trace.Event{At: at, Kind: trace.Complete, ReqID: req.ID, Session: req.Session,
			Backend: beID, Dur: at - req.Arrival})
	}
}

// countLoss increments the loss counter matching the outcome.
func (d *Deployment) countLoss(s *metrics.SessionStats, outcome backend.Outcome) {
	switch outcome {
	case backend.DropDeadline:
		s.Dropped++
	case backend.DropUnroutable:
		s.Unroutable++
	case backend.DropReconfig:
		s.Reconfig++
	case backend.DropOverload:
		s.Overload++
	case backend.DropFailure:
		s.Failed++
	case backend.DropAdmission:
		s.Admission++
	default:
		s.Dropped++
	}
}

// markTimeline records one completion on the session's good/bad series
// (no-op unless Config.SessionTimelines).
func (d *Deployment) markTimeline(session string, bad bool, at time.Duration) {
	if d.sessGood == nil {
		return
	}
	m := d.sessGood
	if bad {
		m = d.sessBad
	}
	ts, ok := m[session]
	if !ok {
		ts = metrics.NewTimeSeries(time.Second)
		m[session] = ts
	}
	ts.Add(at, 1)
}

// SessionTimeline returns a session's per-second good/bad completion
// series (nil unless Config.SessionTimelines; a series is nil until the
// session sees a completion of that kind).
func (d *Deployment) SessionTimeline(session string) (good, bad *metrics.TimeSeries) {
	return d.sessGood[session], d.sessBad[session]
}
