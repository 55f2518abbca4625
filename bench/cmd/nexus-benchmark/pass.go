package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/faults"
	"nexus/internal/metrics"
	"nexus/internal/scheduler"
	"nexus/internal/trace"
)

// traceCapacity sizes the request tracer of the traced pass: enough for the
// tail end of every workload's measured window (~50k requests at ~5 spans
// each), far below the memory a full-run ring would take.
const traceCapacity = 1 << 18

// span is one harness-recorded interval around a call into a layer.
type span struct {
	name       string
	start, end time.Time
	parent     int // index of the enclosing span, -1 for a root
	pass       int
}

// Pass numbers for spans that are not measured passes.
const (
	warmupPass = -1
	tracedPass = -2
)

// spanLog keeps every span of a run in memory.
type spanLog struct{ spans []span }

func (l *spanLog) begin(name string, parent, pass int) int {
	l.spans = append(l.spans, span{name: name, start: time.Now(), parent: parent, pass: pass})
	return len(l.spans) - 1
}

func (l *spanLog) finish(id int, at time.Time) {
	if id >= 0 {
		l.spans[id].end = at
	}
}

// durations returns the closed spans of one name, from measured passes and
// extra set-up builds only.
func (l *spanLog) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range l.spans {
		if s.name == name && s.pass >= 0 && !s.end.IsZero() {
			out = append(out, s.end.Sub(s.start))
		}
	}
	return out
}

// passDuration returns the duration of a pass's single span of one name.
func (l *spanLog) passDuration(name string, pass int) time.Duration {
	for _, s := range l.spans {
		if s.name == name && s.pass == pass && !s.end.IsZero() {
			return s.end.Sub(s.start)
		}
	}
	return 0
}

// outcome is a pass's simulated result. It is a function of the workload
// and seed alone, so every pass of a run must reproduce it exactly.
type outcome struct {
	// attempted and good cover the population of Deployment.BadRate:
	// standalone session requests plus whole queries.
	attempted, good uint64
	// unaccounted counts arrivals without exactly one recorded outcome.
	unaccounted uint64
	// requests merges every request-level outcome, query stages included.
	requests metrics.SessionStats
	gpusUsed float64
	events   uint64

	dispatches, retries, arenaHits, arenaGrows uint64
	batches, items                             uint64
	busyFrac                                   float64
	epochs, moved, planGPUs                    int
	deltaPushes, fullPushes                    uint64
	replanned, skipped                         int

	traceSpans                  uint64
	auditRecords, alerts, dumps int
	injections                  int
	faultErrors                 []string
	fingerprint                 uint64
}

// passResult is one pass's outcome plus its runtime allocation counters.
type passResult struct {
	out                 outcome
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
	blame               []trace.RequestBlame // traced pass only
}

// build is one deployment ready to run.
type build struct {
	d        *cluster.Deployment
	specs    []*apps.Spec
	injector *faults.Injector
	script   faults.Script
}

// newBuild creates and installs a deployment. onEpoch observes every
// control-plane epoch.
func (r *runner) newBuild(onEpoch func(), traced bool) (*build, error) {
	cfg := r.w.config(r.o.seed)
	cfg.Warmup = r.warmup
	cfg.OnEpoch = func(int, scheduler.MoveStats, int) { onEpoch() }
	if traced {
		cfg.TraceCapacity = traceCapacity
	}
	d, err := cluster.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("cluster.New: %w", err)
	}
	specs, script, err := r.w.install(d, r.o.seed, r.warmup, r.measured)
	if err != nil {
		return nil, fmt.Errorf("installing %s: %w", r.w.name, err)
	}
	b := &build{d: d, specs: specs, script: script}
	if script != nil {
		b.injector = faults.New(d.Clock, d, r.o.seed)
		if err := b.injector.Schedule(script); err != nil {
			return nil, fmt.Errorf("scheduling faults: %w", err)
		}
	}
	return b, nil
}

// setupBuild times one throw-away build: cluster.New, app install and the
// first epoch, with no traffic. It only adds a set-up sample.
func (r *runner) setupBuild(pass int) error {
	debug.FreeOSMemory()
	sp := r.spans
	setup := sp.begin("setup", -1, pass)
	b, err := r.newBuild(func() { sp.finish(setup, time.Now()) }, false)
	if err != nil {
		return err
	}
	if err := b.d.Sched.RunEpoch(); err != nil {
		return fmt.Errorf("first epoch: %w", err)
	}
	return nil
}

// pass builds a fresh deployment and runs it to its horizon, recording
// harness spans around each layer the run crosses:
//
//	pass ─┬─ setup ─┬─ cluster.build          cluster.New + apps.Deploy + fault script
//	      │         └─ globalsched.first_epoch Run call → first OnEpoch
//	      └─ sim.run ─┬─ globalsched.epoch     timer 1 ns before each tick → OnEpoch
//	                  └─ cluster.drain         harness event at the horizon → Run returns
func (r *runner) pass(pass int, traced bool) (*passResult, error) {
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := r.spans
	root := sp.begin("pass", -1, pass)
	setup := sp.begin("setup", root, pass)
	buildSpan := sp.begin("cluster.build", setup, pass)
	firstEpoch, runSpan, epochSpan, drain := -1, -1, -1, -1
	onEpoch := func() {
		now := time.Now()
		switch {
		case runSpan < 0:
			sp.finish(firstEpoch, now)
			sp.finish(setup, now)
			runSpan = sp.begin("sim.run", root, pass)
		case epochSpan >= 0:
			sp.finish(epochSpan, now)
			epochSpan = -1
		}
	}
	b, err := r.newBuild(onEpoch, traced)
	if err != nil {
		return nil, err
	}
	d := b.d
	horizon := r.warmup + r.measured
	epoch := r.w.config(r.o.seed).Epoch
	for t := epoch - 1; t < horizon; t += epoch {
		d.Clock.At(t, func() { epochSpan = sp.begin("globalsched.epoch", runSpan, pass) })
	}
	d.Clock.At(horizon, func() { drain = sp.begin("cluster.drain", runSpan, pass) })
	sp.finish(buildSpan, time.Now())
	firstEpoch = sp.begin("globalsched.first_epoch", setup, pass)
	if _, err := d.Run(r.measured); err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	end := time.Now()
	sp.finish(drain, end)
	sp.finish(runSpan, end)
	sp.finish(root, end)
	runtime.ReadMemStats(&m1)

	res := &passResult{
		out:        observe(b),
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcCycles:   m1.NumGC - m0.NumGC,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
	if traced {
		res.blame = trace.AttributeBlame(d.Tracer().Events())
	}
	return res, nil
}

// observe reads a finished deployment's outcome through its public
// accessors and fingerprints everything that must repeat across passes.
func observe(b *build) outcome {
	d := b.d
	h := fnv.New64a()
	var o outcome
	account := func(id string, s *metrics.SessionStats, lost uint64) {
		o.unaccounted += diff(s.Sent, s.Completed+lost)
		fmt.Fprintf(h, "%s %d %d %d %d %d %d %d %d %d %d %d %d %d\n", id,
			s.Sent, s.Dropped, s.Completed, s.Missed, s.Unroutable, s.Reconfig,
			s.Overload, s.Failed, s.Admission,
			s.Latency.Count(), s.Latency.Mean(), s.Latency.Min(), s.Latency.Max())
	}
	for _, id := range d.Recorder.SessionIDs() {
		s := d.Recorder.Session(id)
		account(id, s, s.Lost())
		o.requests.Merge(s)
	}
	for _, spec := range b.specs {
		for _, sl := range spec.Sessions {
			s := d.Recorder.Session(sl.Spec.ID)
			o.attempted += s.Sent
			o.good += s.Good()
		}
		for _, ql := range spec.Queries {
			// Whole queries resolve as completed (good or late); a lost stage
			// marks its query late, so there is no loss term.
			q := d.QueryStats(ql.Spec.Query.Name)
			account("query/"+ql.Spec.Query.Name, q, 0)
			o.attempted += q.Sent
			o.good += q.Good()
		}
	}

	o.gpusUsed = d.AvgGPUsUsed()
	o.events = d.Clock.Executed()
	for _, fe := range d.Frontends {
		o.dispatches += fe.Dispatches()
		o.retries += fe.Retries()
		hits, grows := fe.ArenaStats()
		o.arenaHits += hits
		o.arenaGrows += grows
	}
	ids := d.BackendIDs()
	for _, id := range ids {
		batches, items := d.Pool.Get(id).BatchStats()
		o.batches += batches
		o.items += items
	}
	if n := len(ids); n > 0 && d.Clock.Now() > 0 {
		o.busyFrac = float64(d.Pool.TotalBusy()) / (float64(n) * float64(d.Clock.Now()))
	}
	o.epochs = d.Sched.Epochs()
	o.moved = d.Sched.TotalMoved()
	if p := d.Sched.Plan(); p != nil {
		o.planGPUs = p.GPUCount()
	}
	o.deltaPushes, o.fullPushes, _ = d.Sched.RoutePushStats()
	o.replanned, o.skipped, _ = d.Sched.ShardTotals()

	// Not fingerprinted: the traced pass records spans the others do not.
	o.traceSpans = d.Tracer().Total()
	if a := d.Audit(); a != nil {
		o.auditRecords = len(a.Placements()) + len(a.Splits()) + len(a.DropWindows()) +
			len(a.Chaos()) + len(a.PlanDiffs())
	}
	if t := d.Telemetry(); t != nil {
		o.alerts = len(t.Alerts())
	}
	if f := d.Flight(); f != nil {
		o.dumps = len(f.Dumps())
	}
	if b.injector != nil {
		log := b.injector.Log()
		o.injections = len(log)
		o.faultErrors = checkFaults(b.script, log)
		for _, in := range log {
			fmt.Fprintf(h, "fault %d %d %s %t\n", in.At, in.Kind, in.Backend, in.Applied)
		}
	}
	fmt.Fprintf(h, "%d %d %x %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n",
		o.attempted, o.good, math.Float64bits(o.gpusUsed), o.events,
		o.dispatches, o.retries, o.arenaHits, o.batches, o.items,
		o.epochs, o.moved, o.planGPUs, o.deltaPushes, o.fullPushes,
		o.auditRecords, o.alerts, o.dumps)
	o.fingerprint = h.Sum64()
	return o
}

// checkFaults reports every scripted fault missing from the injection log,
// or logged but not applied. Events fire in script order (distinct times).
func checkFaults(script faults.Script, log []faults.Injection) []string {
	var errs []string
	if len(log) != len(script) {
		errs = append(errs, fmt.Sprintf("injection log has %d entries for %d scripted faults", len(log), len(script)))
	}
	for i, e := range script {
		if i >= len(log) {
			break
		}
		in := log[i]
		if in.Kind != e.Kind || in.At != e.At || !in.Applied {
			errs = append(errs, fmt.Sprintf("fault %d (%v at %v): logged %v at %v applied=%t %s",
				i, e.Kind, e.At, in.Kind, in.At, in.Applied, in.Note))
		}
	}
	return errs
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
