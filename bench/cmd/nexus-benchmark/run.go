package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime/pprof"
	"syscall"
	"time"

	"nexus/internal/trace"
)

// setupFloor is the build time below which one sample per pass is too few:
// such workloads repeat throw-away builds until minSetupSamples exist.
const (
	setupFloor      = 50 * time.Millisecond
	minSetupSamples = 21
)

// options are one run's settings.
type options struct {
	seed   int64
	passes int  // measured passes after the discarded warm-up pass
	trace  bool // profile the passes and report per-layer metrics
	short  bool // shrink the virtual horizon to a smoke-test size
}

// runner executes one workload's passes and keeps their spans.
type runner struct {
	w                *workload
	o                options
	warmup, measured time.Duration
	spans            *spanLog
}

// metric is one named, unit-carrying result.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's result.
type report struct {
	correct           bool
	problems          []string
	attempted, failed uint64
	endToEnd          []metric
	perLayer          []metric
	notes             []string
	trace             bool
}

// run executes one warm-up pass (discarded), then the measured passes
// (under a CPU profile with -trace 1, followed by one request-traced pass),
// checks that every pass simulated the same outcome, and derives the
// metrics.
func run(w *workload, o options) (*report, error) {
	r := &runner{w: w, o: o, warmup: w.warmup, measured: w.measured, spans: &spanLog{}}
	if o.short {
		r.warmup, r.measured = 500*time.Millisecond, 2*time.Second
	}
	ref, err := r.pass(warmupPass, false)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if o.trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	results := make([]*passResult, 0, o.passes)
	for i := 0; i < o.passes; i++ {
		res, err := r.pass(i, false)
		if err != nil {
			if o.trace {
				pprof.StopCPUProfile()
			}
			return nil, err
		}
		results = append(results, res)
	}
	rep := &report{correct: true, trace: o.trace}
	if o.trace {
		pprof.StopCPUProfile()
		traced, err := r.pass(tracedPass, true)
		if err != nil {
			return nil, err
		}
		rep.check("traced pass", ref.out, traced.out)
		if err := r.traceMetrics(rep, &prof, results, traced); err != nil {
			return nil, err
		}
	} else if median(ms(r.spans.durations("setup"))) < msOf(setupFloor) {
		for n := len(r.spans.durations("setup")); n < minSetupSamples; n++ {
			if err := r.setupBuild(o.passes + n); err != nil {
				return nil, err
			}
		}
	}
	rep.check("warm-up pass", ref.out, ref.out)
	for i, res := range results {
		rep.check(fmt.Sprintf("pass %d", i), ref.out, res.out)
		rep.attempted += res.out.attempted
		rep.failed += res.out.unaccounted
	}
	r.endToEnd(rep, ref.out)
	r.layerMetrics(rep, ref.out, results)
	return rep, nil
}

// check applies the correctness gate to one pass: every arrival has exactly
// one outcome, every scripted fault fired and applied, and the simulated
// outcome equals the reference pass's.
func (rep *report) check(label string, ref, got outcome) {
	fail := func(format string, args ...any) {
		rep.correct = false
		rep.problems = append(rep.problems, label+": "+fmt.Sprintf(format, args...))
	}
	if got.unaccounted > 0 {
		fail("%d arrivals without exactly one outcome", got.unaccounted)
	}
	for _, e := range got.faultErrors {
		fail("%s", e)
	}
	if got.fingerprint != ref.fingerprint {
		fail("simulated outcome differs from the warm-up pass (fingerprint %016x, want %016x)",
			got.fingerprint, ref.fingerprint)
	}
}

// endToEnd derives the user-facing metrics. Virtual-time metrics come from
// the reference outcome, which every pass reproduced; set-up time is a
// median over builds.
func (r *runner) endToEnd(rep *report, o outcome) {
	lat := &o.requests.Latency
	rep.endToEnd = []metric{
		{"setup_s", median(ms(r.spans.durations("setup"))) / 1000, "s"},
		{"max_rss_mb", maxRSSMB(), "MB"},
		{"goodput_rps", float64(o.good) / r.measured.Seconds(), "1/s"},
		{"good_frac", ratio(float64(o.good), float64(o.attempted)), "frac"},
		{"latency_ms_p50", histQuantile(lat, 0.5), "ms"},
		{"latency_ms_p99", histQuantile(lat, tailQuantile(int(lat.Count()), 0.99)), "ms"},
		{"gpus_used", o.gpusUsed, "count"},
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("passes: 1 warm-up + %d measured, %v + %v virtual each", r.o.passes, r.warmup, r.measured),
		fmt.Sprintf("setup samples: %d", len(r.spans.durations("setup"))),
		fmt.Sprintf("latency samples: %d (p99 reported at q=%.4f)", lat.Count(), tailQuantile(int(lat.Count()), 0.99)),
		fmt.Sprintf("attempted per pass: %d, good: %d", o.attempted, o.good))
}

// layerMetrics derives the simulator's speed, the per-layer counters and
// the harness-span timings.
func (r *runner) layerMetrics(rep *report, o outcome, results []*passResult) {
	perReq := func(x float64) float64 { return ratio(x, float64(o.attempted)) }
	total := float64(o.requests.Sent)
	var rates, allocs, mallocs, gcs, pauses []float64
	for i, res := range results {
		rates = append(rates, ratio(float64(res.out.attempted), r.spans.passDuration("sim.run", i).Seconds()))
		allocs = append(allocs, float64(res.allocBytes))
		mallocs = append(mallocs, float64(res.mallocs))
		gcs = append(gcs, float64(res.gcCycles))
		pauses = append(pauses, msOf(res.gcPause))
	}
	epochs := ms(r.spans.durations("globalsched.epoch"))
	q90 := tailQuantile(len(epochs), 0.9)
	rep.perLayer = append(rep.perLayer,
		metric{"sim_req_per_s", median(rates), "1/s"},
		metric{"simclock.events_per_req", perReq(float64(o.events)), "count/req"},
		metric{"frontend.dispatches_per_req", perReq(float64(o.dispatches)), "count/req"},
		metric{"frontend.retries_per_req", perReq(float64(o.retries)), "count/req"},
		metric{"frontend.arena_hit_frac", ratio(float64(o.arenaHits), float64(o.arenaHits+o.arenaGrows)), "frac"},
		metric{"backend.batch_size_mean", ratio(float64(o.items), float64(o.batches)), "count"},
		metric{"gpusim.busy_frac", o.busyFrac, "frac"},
		metric{"globalsched.epochs", float64(o.epochs), "count"},
		metric{"globalsched.sessions_moved", float64(o.moved), "count"},
		metric{"globalsched.delta_push_frac", ratio(float64(o.deltaPushes), float64(o.deltaPushes+o.fullPushes)), "frac"},
		metric{"globalsched.shards_replanned_frac", ratio(float64(o.replanned), float64(o.replanned+o.skipped)), "frac"},
		metric{"scheduler.plan_gpus", float64(o.planGPUs), "count"},
		metric{"metrics.drop_frac.deadline", ratio(float64(o.requests.Dropped), total), "frac"},
		metric{"metrics.drop_frac.overload", ratio(float64(o.requests.Overload), total), "frac"},
		metric{"metrics.drop_frac.unroutable", ratio(float64(o.requests.Unroutable), total), "frac"},
		metric{"metrics.drop_frac.reconfig", ratio(float64(o.requests.Reconfig), total), "frac"},
		metric{"metrics.drop_frac.failure", ratio(float64(o.requests.Failed), total), "frac"},
		metric{"metrics.drop_frac.admission", ratio(float64(o.requests.Admission), total), "frac"},
		metric{"trace.spans_per_req", perReq(float64(o.traceSpans)), "count/req"},
		metric{"trace.audit_records", float64(o.auditRecords), "count"},
		metric{"telemetry.alerts", float64(o.alerts), "count"},
		metric{"forensics.dumps", float64(o.dumps), "count"},
		metric{"faults.injections", float64(o.injections), "count"},
		metric{"runtime.alloc_b_per_req", perReq(median(allocs)), "B/req"},
		metric{"runtime.mallocs_per_req", perReq(median(mallocs)), "count/req"},
		metric{"runtime.gc_cycles", median(gcs), "count"},
		metric{"runtime.gc_pause_ms", median(pauses), "ms"},
		metric{"cluster.build_ms", median(ms(r.spans.durations("cluster.build"))), "ms"},
		metric{"globalsched.first_epoch_ms", median(ms(r.spans.durations("globalsched.first_epoch"))), "ms"},
		metric{"globalsched.epoch_ms_p50", median(append([]float64(nil), epochs...)), "ms"},
		metric{"globalsched.epoch_ms_p90", quantile(epochs, q90), "ms"},
		metric{"cluster.drain_ms", median(ms(r.spans.durations("cluster.drain"))), "ms"},
	)
	rep.notes = append(rep.notes, fmt.Sprintf("epoch spans: %d (p90 reported at q=%.4f)", len(epochs), q90))
}

// traceMetrics adds the CPU ledger of the profiled passes and the latency
// blame of the request-traced pass.
func (r *runner) traceMetrics(rep *report, prof *bytes.Buffer, results []*passResult, traced *passResult) error {
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return err
	}
	byLayer := ledger(samples)
	var cpu int64
	for _, ns := range byLayer {
		cpu += ns
	}
	var requests uint64
	for _, res := range results {
		requests += res.out.attempted
	}
	for _, l := range layers {
		rep.perLayer = append(rep.perLayer,
			metric{l + ".self_frac", ratio(float64(byLayer[l]), float64(cpu)), "frac"},
			metric{l + ".self_ns_per_req", ratio(float64(byLayer[l]), float64(requests)), "ns/req"})
	}
	runs := make([]float64, len(results))
	for i := range results {
		runs[i] = r.spans.passDuration("sim.run", i).Seconds()
	}
	rep.perLayer = append(rep.perLayer, metric{"bench.trace_overhead_frac",
		ratio(r.spans.passDuration("sim.run", tracedPass).Seconds(), median(runs)) - 1, "frac"})

	stages := []struct {
		name string
		of   func(trace.StageBlame) time.Duration
	}{
		{"frontend.admission_ms", func(b trace.StageBlame) time.Duration { return b.Admission }},
		{"frontend.dispatch_ms", func(b trace.StageBlame) time.Duration { return b.Dispatch }},
		{"backend.stall_ms", func(b trace.StageBlame) time.Duration { return b.Stall }},
		{"backend.queue_ms", func(b trace.StageBlame) time.Duration { return b.Queue }},
		{"gpusim.gpu_ms", func(b trace.StageBlame) time.Duration { return b.GPU }},
	}
	q99 := tailQuantile(len(traced.blame), 0.99)
	for _, st := range stages {
		xs := make([]float64, len(traced.blame))
		for i, b := range traced.blame {
			xs[i] = msOf(st.of(b.StageBlame))
		}
		rep.perLayer = append(rep.perLayer,
			metric{st.name + "_p50", quantile(xs, 0.5), "ms"},
			metric{st.name + "_p99", quantile(xs, q99), "ms"})
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("profile: %d samples, %.3f CPU s", len(samples), float64(cpu)/1e9),
		fmt.Sprintf("blame samples: %d requests (p99 reported at q=%.4f)", len(traced.blame), q99))
	return nil
}

// write prints every metric by name with its unit, then the result line:
// end-to-end metrics without -trace, per-layer metrics with it.
func (rep *report) write(w io.Writer) error {
	for _, p := range rep.problems {
		fmt.Fprintf(w, "INCORRECT %s\n", p)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, m := range rep.endToEnd {
		fmt.Fprintf(w, "e2e   %-38s %16.6f %s\n", m.name, m.value, m.unit)
	}
	for _, m := range rep.perLayer {
		fmt.Fprintf(w, "layer %-38s %16.6f %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, map[string]value{}}
	list := rep.endToEnd
	if rep.trace {
		list = rep.perLayer
	}
	for _, m := range list {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// maxRSSMB returns the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
