// Package forensics is the anomaly-triggered capture layer on top of the
// trace and telemetry planes: a flight recorder that rides the always-on
// bounded buffers the deployment already maintains (the tracer's span ring,
// the audit log, the chaos timeline) plus a short time-trimmed tail of
// metric snapshots, and — when the alert engine reports a new firing
// transition — freezes the last N virtual seconds of all of them into one
// time-correlated dump bundle.
//
// The recorder itself never touches the dispatch hot path: spans keep going
// into the existing zero-alloc tracer ring, and the recorder only reads
// them at dump time. Its own bookkeeping runs once per telemetry sampling
// tick on the simulation goroutine, so enabled forensics stay deterministic
// and the steady-state dispatch path stays allocation-free.
package forensics

import (
	"fmt"
	"io"
	"time"

	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

// DefaultWindow is the capture horizon before an anomaly.
const DefaultWindow = 5 * time.Second

// DefaultMaxDumps bounds how many bundles one run retains.
const DefaultMaxDumps = 8

// Config enables the flight recorder on a deployment.
type Config struct {
	// Window is how far back a dump reaches (0 = DefaultWindow).
	Window time.Duration
	// MaxDumps bounds retained bundles; triggers past it are counted, not
	// captured (0 = DefaultMaxDumps).
	MaxDumps int
	// Cooldown suppresses triggers arriving within this span of the last
	// captured dump — an incident typically fires several rules in a burst,
	// and one bundle per burst is the useful granularity (0 = Window).
	Cooldown time.Duration
}

func (c Config) window() time.Duration {
	if c.Window <= 0 {
		return DefaultWindow
	}
	return c.Window
}

func (c Config) maxDumps() int {
	if c.MaxDumps <= 0 {
		return DefaultMaxDumps
	}
	return c.MaxDumps
}

func (c Config) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return c.window()
	}
	return c.Cooldown
}

// Dump is one time-correlated capture bundle: the alert that triggered it
// and every plane's records from the capture window — request spans, epoch
// placements and plan diffs, chaos-timeline edges, and metric snapshots —
// all bounded by the same [at-window, at] interval.
type Dump struct {
	AtMS     float64 `json:"at_ms"`
	Rule     string  `json:"rule"`
	Target   string  `json:"target,omitempty"`
	Value    float64 `json:"value,omitempty"`
	Detail   string  `json:"detail,omitempty"`
	WindowMS float64 `json:"window_ms"`

	Spans      []trace.Event           `json:"spans,omitempty"`
	Placements []trace.PlacementRecord `json:"placements,omitempty"`
	PlanDiffs  []trace.PlanDiffRecord  `json:"plan_diffs,omitempty"`
	Chaos      []trace.ChaosRecord     `json:"chaos,omitempty"`
	Samples    []telemetry.Snapshot    `json:"samples,omitempty"`
}

// Recorder is the flight recorder. Like the tracer and audit log, a nil
// *Recorder is a valid no-op, so wiring records unconditionally.
type Recorder struct {
	cfg        Config
	samples    []telemetry.Snapshot // trimmed to the capture window
	dumps      []Dump
	lastDump   time.Duration
	hasDumped  bool
	suppressed int // triggers lost to cooldown or the dump cap
}

// New creates a flight recorder.
func New(cfg Config) *Recorder { return &Recorder{cfg: cfg} }

// ObserveSample appends one metric snapshot and trims the tail to the
// capture window. Runs once per telemetry tick on the simulation goroutine.
func (r *Recorder) ObserveSample(s telemetry.Snapshot) {
	if r == nil {
		return
	}
	r.samples = append(r.samples, s)
	cut := s.At - r.cfg.window()
	keep := 0
	for keep < len(r.samples) && r.samples[keep].At < cut {
		keep++
	}
	if keep > 0 {
		n := copy(r.samples, r.samples[keep:])
		// Release the shifted-out tail so retained snapshots don't pin it.
		tail := r.samples[n:]
		for i := range tail {
			tail[i] = telemetry.Snapshot{}
		}
		r.samples = r.samples[:n]
	}
}

// Trigger captures one dump bundle for a firing alert, reading the last
// window of spans from the tracer and of control-plane records from the
// audit log. Triggers inside the cooldown of the previous capture, or past
// the dump cap, are counted as suppressed instead.
func (r *Recorder) Trigger(at time.Duration, alert telemetry.Alert, tracer *trace.Tracer, audit *trace.Audit) {
	if r == nil {
		return
	}
	if r.hasDumped && at-r.lastDump < r.cfg.cooldown() {
		r.suppressed++
		return
	}
	if len(r.dumps) >= r.cfg.maxDumps() {
		r.suppressed++
		return
	}
	window := r.cfg.window()
	from := at - window
	d := Dump{
		AtMS: trace.MS(at), Rule: alert.Rule, Target: alert.Target,
		Value: alert.Value, Detail: alert.Detail, WindowMS: trace.MS(window),
	}
	for _, e := range tracer.Events() {
		if e.At >= from && e.At <= at {
			d.Spans = append(d.Spans, e)
		}
	}
	fromMS, atMS := trace.MS(from), trace.MS(at)
	for _, p := range audit.Placements() {
		if p.AtMS >= fromMS && p.AtMS <= atMS {
			d.Placements = append(d.Placements, p)
		}
	}
	for _, pd := range audit.PlanDiffs() {
		if pd.AtMS >= fromMS && pd.AtMS <= atMS {
			d.PlanDiffs = append(d.PlanDiffs, pd)
		}
	}
	for _, c := range audit.Chaos() {
		if c.AtMS >= fromMS && c.AtMS <= atMS {
			d.Chaos = append(d.Chaos, c)
		}
	}
	for _, s := range r.samples {
		if s.At >= from && s.At <= at {
			d.Samples = append(d.Samples, s)
		}
	}
	r.dumps = append(r.dumps, d)
	r.lastDump, r.hasDumped = at, true
}

// Dumps returns the captured bundles in trigger order.
func (r *Recorder) Dumps() []Dump {
	if r == nil {
		return nil
	}
	return r.dumps
}

// Suppressed returns how many triggers were dropped by cooldown or the cap.
func (r *Recorder) Suppressed() int {
	if r == nil {
		return 0
	}
	return r.suppressed
}

// WriteText renders one dump bundle for terminals: the trigger header, the
// chaos edges and plan changes inside the window, the per-session blame
// breakdown reconstructed from the captured spans, and the sample count.
func (d *Dump) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "dump at %.1fms: %s(%s) value=%.2f window=%.0fms\n",
		d.AtMS, d.Rule, d.Target, d.Value, d.WindowMS); err != nil {
		return err
	}
	if d.Detail != "" {
		if _, err := fmt.Fprintf(w, "  %s\n", d.Detail); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "  captured: %d spans, %d placements, %d plan diffs, %d chaos edges, %d samples\n",
		len(d.Spans), len(d.Placements), len(d.PlanDiffs), len(d.Chaos), len(d.Samples)); err != nil {
		return err
	}
	if len(d.Chaos) > 0 {
		if _, err := fmt.Fprintln(w, "  chaos edges in window:"); err != nil {
			return err
		}
		for _, c := range d.Chaos {
			line := fmt.Sprintf("    %9.1fms %-10s", c.AtMS, c.Kind)
			if c.Backend != "" {
				line += " backend=" + c.Backend
			}
			if c.Frontend != "" {
				line += " frontend=" + c.Frontend
			}
			if c.From != "" || c.To != "" {
				line += fmt.Sprintf(" %s->%s", c.From, c.To)
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	for _, pd := range d.PlanDiffs {
		if err := trace.WritePlanDiffText(w, pd); err != nil {
			return err
		}
	}
	if blames := trace.SessionBlames(trace.AttributeBlame(d.Spans)); len(blames) > 0 {
		if err := trace.WriteBlameReport(w, blames); err != nil {
			return err
		}
	}
	return nil
}
