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
	"slices"
	"sort"
	"time"

	"nexus/internal/backend"
	"nexus/internal/forensics"
	"nexus/internal/frontend"
	"nexus/internal/globalsched"
	"nexus/internal/gpusim"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/obslog"
	"nexus/internal/profiler"
	"nexus/internal/queryopt"
	"nexus/internal/scheduler"
	"nexus/internal/session"
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
	// fixed alert rules, and per-epoch scheduler health reports; read them
	// via Deployment.Telemetry. nil (the default) disables the plane
	// entirely — no instruments, no sampling tick, goldens unchanged.
	Telemetry *telemetry.Config
	// Forensics enables the anomaly-triggered flight recorder: every new
	// firing alert records a dump of its trigger, its capture window, and
	// the window's spans (read them via Deployment.Flight; the window's
	// audit records and samples come from ObsLog). Setting it implies
	// tracing (a large default ring if TraceCapacity is unset), the audit
	// log, and the telemetry plane with default rules if Telemetry is nil.
	// Exec-latency windows additionally carry exemplar request IDs. nil
	// (the default) changes nothing — goldens stay byte-identical.
	Forensics *forensics.Config

	// Degraded-mode survival layer. Every knob below is off by default, and
	// with all of them off the outputs (goldens, observation logs) stay
	// byte-identical to a build without the layer.

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
	// Admission installs token-bucket admission control: each listed
	// session gets its own sustained rate and burst, so a session that
	// floods past its bucket is shed (DropAdmission) without taking
	// capacity from the others.
	Admission map[string]frontend.AdmissionConfig
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
		c.Admission != nil
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

	cfg Config
	// names is the deployment's session table: every session, standalone
	// or query stage, has a handle in it, and requests carry the handle.
	names    *session.Table
	rng      *rand.Rand
	profiles map[string]*profiler.Profile
	mdb      *model.DB
	// profiled counts the models rebuildProfiles has walked, in the model
	// DB's registration order.
	profiled int

	collecting bool
	// warmEnd is the last request ID issued before statistics began: a
	// standalone request with an ID up to it is warm-up traffic, whose
	// outcome is not counted. While tracing, warmDone marks (one bit per
	// ID) the warm-up requests whose outcome has arrived.
	warmEnd    uint64
	warmDone   []uint64
	seq        uint64
	queryTrack map[uint64]*queryInstance
	// freeQueries holds finished query instances for reuse.
	freeQueries []*queryInstance
	queryMeta   []*stageMeta // by stage session handle; nil = not a stage

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

	// unroutable counts requests dropped because no route or unit existed
	// when they arrived (admission-control drops at the frontend).
	unroutable uint64

	// tracer records request lifecycle events when enabled (nil = off).
	// causes holds each outcome's handle in its name table, by Outcome.
	tracer *trace.Tracer
	causes []trace.Name
	// audit holds the control-plane audit log when enabled (nil = off).
	audit *trace.Audit
	// telem is the live telemetry collector (nil = off); telemSample holds
	// the sampler's pull-side state.
	telem       *telemetry.Collector
	telemSample *telemetrySampler
	// flight is the anomaly-triggered dump recorder (nil = off).
	flight *forensics.Recorder
}

// sessionLoad is a standalone session's arrival process. The scheduler
// holds the session's spec; the load keeps only what Run starts its
// generator with, and takes the ID from the session table.
type sessionLoad struct {
	proc   workload.Process
	slo    time.Duration
	handle session.Handle
}

type queryLoad struct {
	spec globalsched.QuerySpec
	proc workload.Process
	root session.Handle
}

type stageMeta struct {
	queryName string
	children  []stageChild
}

type stageChild struct {
	stage session.Handle
	gamma float64
	carry float64 // fractional fan-out accumulator
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
	names := session.NewTable()
	d := &Deployment{
		Clock:      simclock.New(),
		Recorder:   metrics.NewRecorder(names),
		cfg:        cfg,
		names:      names,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		mdb:        mdb,
		queryTrack: make(map[uint64]*queryInstance),
		Arrivals:   metrics.NewTimeSeries(time.Second),
		BadEvts:    metrics.NewTimeSeries(time.Second),
		GoodEvts:   metrics.NewTimeSeries(time.Second),
		GPUsUsed:   metrics.NewTimeSeries(time.Second),
		queryStats: make(map[string]*metrics.SessionStats),
	}
	if cfg.TraceCapacity > 0 {
		d.tracer = trace.New(cfg.TraceCapacity, names)
		// Warmup traffic is excluded from metrics; filter it out of the
		// trace too, so per-cause event counts reconcile exactly with the
		// recorder. Query stages are tracked while in flight, warmup ones
		// with a blank query name; other warmup requests are filtered until
		// their outcome arrives (a backend that drops a request on arrival
		// reports it before the frontend records the enqueue).
		d.tracer.SetFilter(func(req uint64) bool {
			if qi, ok := d.queryTrack[req]; ok {
				return qi.queryName != ""
			}
			return !d.warmup(req) || d.warmFinished(req)
		})
		for o := backend.OK; o <= backend.DropAdmission; o++ {
			d.causes = append(d.causes, d.tracer.Name(o.String()))
		}
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
		d.telem.SetOnAlert(func(a telemetry.Alert) {
			d.flight.Trigger(a.At, a, d.tracer)
		})
	}
	if err := d.rebuildProfiles(); err != nil {
		return nil, err
	}
	beCfg, devMode := d.runtimeConfig()
	if d.tracer != nil {
		beCfg.OnBatch = func(backendID, unitID string, batch []backend.Request, inc uint32, gpuTime time.Duration) {
			s := trace.Span{
				At: d.Clock.Now(), Kind: trace.ExecuteName,
				Backend: d.tracer.Name(backendID), Unit: d.tracer.Name(unitID),
				Batch: int32(len(batch)), Dur: gpuTime, Inc: inc,
			}
			for i := range batch {
				s.Req, s.Session = batch[i].ID, batch[i].Session
				d.tracer.Put(s)
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
		beCfg.OnBatch = func(backendID, unitID string, batch []backend.Request, inc uint32, gpuTime time.Duration) {
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
		be := d.tracer.Name(beID)
		return func(req workload.Request, outcome backend.Outcome, at time.Duration) {
			d.requestDone(req, outcome, at, be)
		}
	})
	nFE := cfg.Frontends
	if nFE < 1 {
		nFE = 1
	}
	for i := 0; i < nFE; i++ {
		fe := frontend.New(d.Clock, d.Pool.backends, names, cfg.NetDelay, func(req workload.Request, reason backend.Outcome) {
			if reason == backend.DropUnroutable {
				d.unroutable++
			}
			// Frontend drops never reached a backend; attribution stays
			// empty and the cause identifies the admission path.
			d.requestDone(req, reason, d.Clock.Now(), 0)
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
		}
		d.Frontends = append(d.Frontends, fe)
	}
	d.Frontend = d.Frontends[0]
	d.Sched = globalsched.New(d.Clock, d.Pool, d.Frontends, names, d.mdb, d.profiles, d.controlConfig())
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
// calibrated model registered since the last call that needs a profile of
// its own. The model DB never replaces a registered model, so a derived
// profile stays current: set-up cost grows with the models added, not with
// the models registered so far. A specialization that can share its
// source's profile (globalsched.ResolveProfile) gets no entry, so a
// variant costs nothing here.
func (d *Deployment) rebuildProfiles() error {
	fresh := d.mdb.Since(d.profiled)
	if d.profiles == nil {
		// Only the first call can size the map: the scheduler shares it.
		d.profiles = make(map[string]*profiler.Profile, len(fresh))
	}
	for _, m := range fresh {
		if globalsched.ResolveProfile(d.profiles, d.mdb, m.ID) == nil && profiler.Calibrated(m.ID, d.cfg.GPU) {
			p, err := profiler.Calibrate(m, d.cfg.GPU)
			if err != nil {
				return err
			}
			d.profiles[m.ID] = p
		}
		d.profiled++
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

// ObsLog gathers the enabled observation planes into one log, reading each
// once: the retained spans, the audit log, the telemetry snapshots and
// alerts, and the flight-recorder dumps.
func (d *Deployment) ObsLog() obslog.Log {
	return obslog.Log{
		Spans: d.tracer.Events(), Audit: d.audit, Snapshots: d.telem.Snapshots(),
		Alerts: d.telem.Alerts(), Dumps: d.flight.Dumps(),
	}
}

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
	// Failure detection is orthogonal to the system kind.
	cfg.Heartbeat = d.cfg.Heartbeat
	cfg.LeaseMisses = d.cfg.LeaseMisses
	cfg.Audit = d.audit
	if d.telem != nil {
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
	h, err := d.Sched.AddSession(spec)
	if err != nil {
		return err
	}
	if proc == nil {
		proc = workload.Uniform{Rate: spec.ExpectedRate}
	}
	d.loads = append(d.loads, sessionLoad{proc: proc, slo: spec.SLO, handle: h})
	return nil
}

// GrowSessions makes room for n more standalone sessions, so that adding
// them grows the deployment's per-session tables once.
func (d *Deployment) GrowSessions(n int) {
	d.loads = slices.Grow(d.loads, n)
	d.Sched.GrowSessions(n)
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
	d.queryLoads = append(d.queryLoads, queryLoad{spec: spec, proc: proc, root: d.indexQuery(spec)})
	return nil
}

// indexQuery records stage metadata for completion-driven fan-out and
// returns the root stage's handle. The scheduler has given every stage a
// handle.
func (d *Deployment) indexQuery(spec globalsched.QuerySpec) session.Handle {
	q := spec.Query
	stageOf := func(n *queryopt.Node) session.Handle {
		h, _ := d.names.Lookup(queryopt.StageID(q, n))
		return h
	}
	var walk func(n *queryopt.Node)
	walk = func(n *queryopt.Node) {
		meta := &stageMeta{queryName: q.Name}
		for _, e := range n.Edges {
			meta.children = append(meta.children, stageChild{stage: stageOf(e.Child), gamma: e.Gamma})
			walk(e.Child)
		}
		h := stageOf(n)
		d.queryMeta = session.Fit(d.queryMeta, h)
		d.queryMeta[h] = meta
	}
	walk(q.Root)
	return stageOf(q.Root)
}

// stageMeta returns a stage session's metadata (nil if h is no stage).
func (d *Deployment) stageMeta(h session.Handle) *stageMeta {
	if int(h) < len(d.queryMeta) {
		return d.queryMeta[h]
	}
	return nil
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
	d.Clock.At(d.cfg.Warmup, func() { d.collecting, d.warmEnd = true, d.seq })
	// Start generators (kept so fault injection can modulate their rates).
	for _, l := range d.loads {
		g := workload.Start(d.Clock, d.rng, d.names.ID(l.handle), l.slo, l.proc, horizon, d.dispatchStandalone)
		g.Handle = l.handle
		d.gens = append(d.gens, g)
	}
	for _, ql := range d.queryLoads {
		ql := ql
		// The generator's SLO field is the whole-query SLO; per-stage
		// deadlines are assigned at dispatch.
		d.gens = append(d.gens, workload.Start(d.Clock, d.rng, ql.spec.Query.Name, ql.spec.Query.SLO, ql.proc, horizon, func(r workload.Request) {
			d.startQuery(&ql, r)
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
		if h, _ := d.names.Lookup(sid); d.stageMeta(h) != nil {
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

// warmup reports whether a standalone request was issued during warmup:
// before statistics began, every request is; after, those with an ID up to
// warmEnd are.
func (d *Deployment) warmup(req uint64) bool {
	return !d.collecting || req <= d.warmEnd
}

// warmFinished reports whether a warmup request's outcome has arrived
// (tracked only while tracing).
func (d *Deployment) warmFinished(req uint64) bool {
	w := int(req / 64)
	return w < len(d.warmDone) && d.warmDone[w]&(1<<(req%64)) != 0
}

func (d *Deployment) dispatchStandalone(r workload.Request) {
	r.ID = d.nextID()
	if d.collecting {
		d.Recorder.Stats(r.Session).Sent++
		d.Arrivals.Add(d.Clock.Now(), 1)
	}
	d.tracer.Put(trace.Span{At: d.Clock.Now(), Kind: trace.ArriveName, Req: r.ID, Session: r.Session})
	d.dispatch(r)
}

// requestDone is the single completion sink for all backends and the
// frontend's drop path. be is the handle of the backend that reported the
// outcome (0 for frontend-side drops that never reached one). Warmup
// requests still run, so they load the cluster, but are not counted.
func (d *Deployment) requestDone(req workload.Request, outcome backend.Outcome, at time.Duration, be trace.Name) {
	if d.tracer != nil && d.warmup(req.ID) {
		w := int(req.ID / 64)
		d.warmDone = append(d.warmDone, make([]uint64, max(0, w+1-len(d.warmDone)))...)
		d.warmDone[w] |= 1 << (req.ID % 64)
	}
	if qi, ok := d.queryTrack[req.ID]; ok {
		delete(d.queryTrack, req.ID)
		d.stageDone(qi, req, outcome, at, be)
		return
	}
	if d.warmup(req.ID) {
		return
	}
	s := d.Recorder.Stats(req.Session)
	d.traceDone(req, outcome, at, be)
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
	}
}

// traceDone records a request's terminal trace event: a Drop carrying its
// cause (the outcome taxonomy name) and the backend that reported it, or a
// Complete. Dur is total time in system.
func (d *Deployment) traceDone(req workload.Request, outcome backend.Outcome, at time.Duration, be trace.Name) {
	if d.tracer == nil {
		return
	}
	s := trace.Span{At: at, Kind: trace.CompleteName, Req: req.ID, Session: req.Session,
		Backend: be, Dur: at - req.Arrival}
	if outcome.Bad() {
		s.Kind, s.Cause = trace.DropName, d.causes[outcome]
	}
	d.tracer.Put(s)
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
