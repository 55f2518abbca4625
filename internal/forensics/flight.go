// Package forensics is the anomaly-triggered capture layer on top of the
// trace and telemetry planes: a flight recorder that, when the alert engine
// reports a new firing transition, records a dump — the trigger, a capture
// window [at-window, at], and the request spans of that window.
//
// Spans are the one plane a dump copies, because the tracer's ring
// overwrites them; a dump keeps them delta-encoded (trace.Spans), at
// about 9 bytes per span against the ring's 56. Everything else a dump shows — placements,
// plan diffs, chaos edges, metric snapshots — the audit log and the
// telemetry collector keep for the whole run, so it is read from the
// observation log the dump belongs to (obslog.Log.Window) rather than
// copied.
//
// The recorder never touches the dispatch hot path: spans keep going into
// the existing zero-alloc tracer ring, and the recorder only reads them, in
// place, at dump time on the simulation goroutine. Enabled forensics stay
// deterministic and the steady-state dispatch path stays allocation-free.
package forensics

import (
	"encoding/json"
	"time"

	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

// DefaultWindow is the capture horizon before an anomaly.
const DefaultWindow = 5 * time.Second

// DefaultMaxDumps bounds how many dumps one run retains.
const DefaultMaxDumps = 8

// Config enables the flight recorder on a deployment.
type Config struct {
	// Window is how far back a dump reaches (0 = DefaultWindow).
	Window time.Duration
	// MaxDumps bounds retained dumps; triggers past it are counted, not
	// captured (0 = DefaultMaxDumps).
	MaxDumps int
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

// Dump is one flight-recorder capture: the alert that triggered it, the
// capture window [at-window, at], and the request spans recorded in it. The
// window's other records live in the observation log's own planes.
//
// SpansFromMS is set only when the tracer's ring no longer reached back
// before the window's start: it is the time of the oldest span the ring
// still held, inside the window, so spans of the window before it may
// have been overwritten and Spans covers [spans_from, at] only.
type Dump struct {
	AtMS        float64 `json:"at_ms"`
	Rule        string  `json:"rule"`
	Target      string  `json:"target,omitempty"`
	Value       float64 `json:"value,omitempty"`
	Detail      string  `json:"detail,omitempty"`
	WindowMS    float64 `json:"window_ms"`
	SpansFromMS float64 `json:"spans_from_ms,omitempty"`

	Spans trace.Spans `json:"spans"`
}

// MarshalJSON writes d with "spans" omitted when its window holds none, as
// omitempty does for a slice.
func (d Dump) MarshalJSON() ([]byte, error) {
	type fields Dump // without this method
	w := struct {
		fields
		Spans *trace.Spans `json:"spans,omitempty"`
	}{fields: fields(d)}
	if d.Spans.Len() > 0 {
		w.Spans = &d.Spans
	}
	return json.Marshal(w)
}

// Recorder is the flight recorder. Like the tracer and audit log, a nil
// *Recorder is a valid no-op, so wiring records unconditionally.
type Recorder struct {
	cfg        Config
	dumps      []Dump
	lastDump   time.Duration
	hasDumped  bool
	suppressed int // triggers lost to cooldown or the dump cap
}

// New creates a flight recorder.
func New(cfg Config) *Recorder { return &Recorder{cfg: cfg} }

// Trigger records one dump for a firing alert, taking the window's spans
// from the tracer's retained ring. Triggers within one window of the
// previous capture (the cooldown: an incident typically fires several
// rules in a burst, and one dump per burst is the useful granularity), or
// past the dump cap, are counted as suppressed instead.
func (r *Recorder) Trigger(at time.Duration, alert telemetry.Alert, tracer *trace.Tracer) {
	if r == nil {
		return
	}
	window := r.cfg.window()
	if r.hasDumped && at-r.lastDump < window || len(r.dumps) >= r.cfg.maxDumps() {
		r.suppressed++
		return
	}
	from := at - window
	d := Dump{
		AtMS: trace.MS(at), Rule: alert.Rule, Target: alert.Target,
		Value: alert.Value, Detail: alert.Detail, WindowMS: trace.MS(window),
		Spans: tracer.Between(from, at),
	}
	if oldest, ok := tracer.Overwritten(); ok && oldest >= from {
		d.SpansFromMS = trace.MS(oldest)
	}
	r.dumps = append(r.dumps, d)
	r.lastDump, r.hasDumped = at, true
}

// Dumps returns the captured dumps in trigger order.
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
