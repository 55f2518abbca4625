// Package obslog is the one on-disk form of a run's observation planes:
// request spans (trace.Tracer), the control-plane audit log (trace.Audit),
// telemetry snapshots and alerts (telemetry.Collector), and flight-recorder
// dumps (forensics.Recorder), merged into a single JSON Lines stream.
//
// Schema v1: every line is one envelope
//
//	{"v":1,"kind":K,"at_ms":T,"data":{...}}
//
// where data is the record in its plane's JSON form and T is the record's
// own virtual time in milliseconds. K is, in tie-break order, placement,
// split, plan_diff, drop_window, chaos, span, snapshot, alert or dump, and
// finally lost: the audit's discarded-record counts, written once after
// every other record when any is non-zero. Write merges the planes by at_ms,
// breaking ties in that kind order and keeping each plane's own order, so
// its output is byte-deterministic and Read(Write(l)) equals l.
//
// A dump record holds only what the dump alone knows: its trigger (at_ms,
// rule, target, value, detail), its window_ms, and the spans of
// [at_ms-window_ms, at_ms], which the tracer's ring would otherwise have
// overwritten; Read rejects a span outside that window. Its placements,
// plan diffs, chaos edges and snapshots are the log's own records in that
// window (Log.Window). Since dump sorts last among the kinds with an at_ms,
// Write emits a dump after every record stamped at or before it, so a
// streaming reader (Decoder) holds a dump's whole window by the time it
// decodes the dump. Read still accepts dumps written before this form,
// which embedded copies of those records (placements, plan_diffs, chaos,
// samples): it validates their times and drops them.
package obslog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"nexus/internal/forensics"
	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

// Version is the envelope schema version Write emits and Read accepts.
const Version = 1

// Log is every observation plane of one run.
type Log struct {
	Spans     []trace.Event
	Audit     *trace.Audit // nil when the run kept no audit records
	Snapshots []telemetry.Snapshot
	Alerts    []telemetry.Alert
	Dumps     []forensics.Dump
}

type envelope struct {
	V    int             `json:"v"`
	Kind string          `json:"kind"`
	AtMS float64         `json:"at_ms"`
	Data json.RawMessage `json:"data"`
}

// plane is one time-ordered record list as Write merges it.
type plane struct {
	kind string
	n    int
	at   func(i int) float64
	data func(i int) any
}

func planeOf[T any](kind string, recs []T, at func(*T) float64) plane {
	return plane{kind, len(recs), func(i int) float64 { return at(&recs[i]) }, func(i int) any { return &recs[i] }}
}

// Write encodes l as one record stream.
func Write(w io.Writer, l Log) error {
	a := l.Audit
	planes := []plane{
		planeOf("placement", a.Placements(), func(r *trace.PlacementRecord) float64 { return r.AtMS }),
		planeOf("split", a.Splits(), func(r *trace.SplitRecord) float64 { return r.AtMS }),
		planeOf("plan_diff", a.PlanDiffs(), func(r *trace.PlanDiffRecord) float64 { return r.AtMS }),
		planeOf("drop_window", a.DropWindows(), func(r *trace.DropWindowRecord) float64 { return r.AtMS }),
		planeOf("chaos", a.Chaos(), func(r *trace.ChaosRecord) float64 { return r.AtMS }),
		planeOf("span", l.Spans, func(e *trace.Event) float64 { return trace.MS(e.At) }),
		planeOf("snapshot", l.Snapshots, func(s *telemetry.Snapshot) float64 { return s.AtMS }),
		planeOf("alert", l.Alerts, func(a *telemetry.Alert) float64 { return a.AtMS }),
		planeOf("dump", l.Dumps, func(d *forensics.Dump) float64 { return d.AtMS }),
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	next := make([]int, len(planes))
	last := 0.0
	for {
		best := -1
		for p := range planes {
			if next[p] < planes[p].n && (best < 0 || planes[p].at(next[p]) < planes[best].at(next[best])) {
				best = p
			}
		}
		if best < 0 {
			break
		}
		p, i := planes[best], next[best]
		next[best]++
		last = p.at(i)
		if err := encode(enc, p.kind, last, p.data(i)); err != nil {
			return err
		}
	}
	if lost := a.Lost(); lost != (trace.Lost{}) {
		if err := encode(enc, "lost", last, lost); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func encode(enc *json.Encoder, kind string, at float64, data any) error {
	raw, err := json.Marshal(data)
	if err != nil {
		return err
	}
	return enc.Encode(envelope{V: Version, Kind: kind, AtMS: at, Data: raw})
}

// Read decodes a whole log. A torn final line, left by a writer cut off
// mid-record, is skipped; a malformed line with complete lines after it is
// an error.
func Read(r io.Reader) (Log, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Log{}, err
	}
	var l Log
	d := Decoder{pending: data}
	// Terminate an unterminated last line; a torn one stays held and is
	// dropped with the decoder.
	_, err = d.Feed(&l, []byte{'\n'})
	return l, err
}

// Decoder decodes a log incrementally, as a follower of a file another
// process is still appending to sees it. Bytes after the last newline stay
// buffered until their line completes, and a complete trailing line that is
// not valid JSON is held back and retried with the next chunk, since a
// writer's flush can land anywhere. Once a non-blank line follows it, such
// a line can never become valid and is an error.
type Decoder struct {
	pending []byte
	line    int // lines consumed, for error positions
}

// Feed appends chunk, decodes every record it completes into l, and
// returns how many it decoded.
func (d *Decoder) Feed(l *Log, chunk []byte) (int, error) {
	d.pending = append(d.pending, chunk...)
	rest := d.pending
	n := 0
	for {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			break
		}
		if line := bytes.TrimSpace(rest[:i]); len(line) > 0 {
			if !json.Valid(line) {
				if !hasLine(rest[i+1:]) {
					break // torn tail: retry once more arrives
				}
				return n, fmt.Errorf("obslog: line %d: malformed record", d.line+1)
			}
			if err := l.decode(line); err != nil {
				return n, fmt.Errorf("obslog: line %d: %w", d.line+1, err)
			}
			n++
		}
		d.line++
		rest = rest[i+1:]
	}
	// rest aliases pending; copy handles the overlap.
	d.pending = d.pending[:copy(d.pending, rest)]
	return n, nil
}

// hasLine reports whether b holds a complete non-blank line.
func hasLine(b []byte) bool {
	for {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return false
		}
		if len(bytes.TrimSpace(b[:i])) > 0 {
			return true
		}
		b = b[i+1:]
	}
}

// decode appends one envelope's record to its plane. The envelope's at_ms
// must be the record's own time, and every time Read turns into a
// time.Duration must pass trace.ValidMS.
func (l *Log) decode(line []byte) error {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return err
	}
	if env.V != Version {
		return fmt.Errorf("schema version %d, want %d", env.V, Version)
	}
	if !trace.ValidMS(env.AtMS) {
		return fmt.Errorf("at_ms %v outside [0, %g]", env.AtMS, trace.MaxMS)
	}
	at := env.AtMS
	var err error
	switch env.Kind {
	case "placement":
		var r trace.PlacementRecord
		err = json.Unmarshal(env.Data, &r)
		at = r.AtMS
		l.audit().RecordPlacement(r)
	case "split":
		var r trace.SplitRecord
		err = json.Unmarshal(env.Data, &r)
		at = r.AtMS
		l.audit().RecordSplit(r)
	case "plan_diff":
		var r trace.PlanDiffRecord
		err = json.Unmarshal(env.Data, &r)
		at = r.AtMS
		l.audit().RecordPlanDiff(r)
	case "drop_window":
		var r trace.DropWindowRecord
		err = json.Unmarshal(env.Data, &r)
		at = r.AtMS
		l.audit().RecordDropWindow(r)
	case "chaos":
		var r trace.ChaosRecord
		err = json.Unmarshal(env.Data, &r)
		at = r.AtMS
		l.audit().RecordChaos(r)
	case "span":
		var e trace.Event
		err = json.Unmarshal(env.Data, &e)
		at = trace.MS(e.At)
		l.Spans = append(l.Spans, e)
	case "snapshot":
		var s telemetry.Snapshot
		err = json.Unmarshal(env.Data, &s)
		at = s.AtMS
		l.Snapshots = append(l.Snapshots, s)
	case "alert":
		var a telemetry.Alert
		err = json.Unmarshal(env.Data, &a)
		at = a.AtMS
		a.At = trace.FromMS(a.AtMS)
		l.Alerts = append(l.Alerts, a)
	case "dump":
		var d struct {
			forensics.Dump
			legacyDump
		}
		if err = json.Unmarshal(env.Data, &d); err == nil {
			err = checkDump(&d.Dump, &d.legacyDump)
		}
		at = d.AtMS
		l.Dumps = append(l.Dumps, d.Dump)
	case "lost":
		var lost trace.Lost
		err = json.Unmarshal(env.Data, &lost)
		if lost.DropWindows < 0 || lost.Chaos < 0 || lost.PlanDiffs < 0 || lost == (trace.Lost{}) {
			err = errors.Join(err, fmt.Errorf("lost counts %+v not all positive", lost))
		}
		l.audit().AddLost(lost)
	default:
		return fmt.Errorf("unknown record kind %q", env.Kind)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", env.Kind, err)
	}
	if at != env.AtMS {
		return fmt.Errorf("%s: envelope at_ms %v, record at_ms %v", env.Kind, env.AtMS, at)
	}
	return nil
}

// audit returns l's audit log, creating it on the first audit record.
func (l *Log) audit() *trace.Audit {
	if l.Audit == nil {
		l.Audit = trace.NewAudit()
	}
	return l.Audit
}

// legacyDump holds the per-plane copies a dump embedded before it pointed into
// the log. Read validates their times and drops them: the log's own planes
// hold the same records.
type legacyDump struct {
	Placements []trace.PlacementRecord `json:"placements"`
	PlanDiffs  []trace.PlanDiffRecord  `json:"plan_diffs"`
	Chaos      []trace.ChaosRecord     `json:"chaos"`
	Samples    []telemetry.Snapshot    `json:"samples"`
}

// checkDump validates the times of a dump, including those of a legacy
// dump's embedded copies. Each span already validated its own times; it
// must also lie inside the dump's window.
func checkDump(d *forensics.Dump, old *legacyDump) error {
	if !trace.ValidMS(d.WindowMS) {
		return fmt.Errorf("window_ms %v outside [0, %g]", d.WindowMS, trace.MaxMS)
	}
	ats := []float64{d.AtMS}
	for _, p := range old.Placements {
		ats = append(ats, p.AtMS)
	}
	for _, pd := range old.PlanDiffs {
		ats = append(ats, pd.AtMS)
	}
	for _, c := range old.Chaos {
		ats = append(ats, c.AtMS)
	}
	for _, s := range old.Samples {
		ats = append(ats, s.AtMS)
	}
	for _, at := range ats {
		if !trace.ValidMS(at) {
			return fmt.Errorf("at_ms %v outside [0, %g]", at, trace.MaxMS)
		}
	}
	from, to := window(d)
	if d.SpansFromMS != 0 {
		if at := trace.FromMS(d.SpansFromMS); !trace.ValidMS(d.SpansFromMS) || at < from || at > to {
			return fmt.Errorf("spans_from_ms %v outside the window [%v, %v]", d.SpansFromMS, from, to)
		}
	}
	i := 0
	return d.Spans.Walk(func(sp trace.Span) error {
		if sp.At < from || sp.At > to {
			return fmt.Errorf("span %d at %v outside the window [%v, %v]", i, sp.At, from, to)
		}
		i++
		return nil
	})
}

// window returns d's window [at-window, at] in nanoseconds, as the
// recorder bounded it.
func window(d *forensics.Dump) (from, to time.Duration) {
	to = trace.FromMS(d.AtMS)
	return to - trace.FromMS(d.WindowMS), to
}

// Window returns what a dump shows of l: the dump's own spans, and l's
// placements, plan diffs, chaos edges and snapshots stamped inside the
// dump's window [at-window, at]. A record logged later in the trigger's
// instant is inside.
func (l Log) Window(d *forensics.Dump) Log {
	// Bound in nanoseconds as the recorder did, so the millisecond bound is
	// the exact value the recorder's window started at.
	lo, _ := window(d)
	from := trace.MS(lo)
	in := func(at float64) bool { return at >= from && at <= d.AtMS }
	w := Log{Spans: d.Spans.Events(), Audit: trace.NewAudit()}
	a := l.Audit
	keep(a.Placements(), func(r *trace.PlacementRecord) float64 { return r.AtMS }, in, w.Audit.RecordPlacement)
	keep(a.PlanDiffs(), func(r *trace.PlanDiffRecord) float64 { return r.AtMS }, in, w.Audit.RecordPlanDiff)
	keep(a.Chaos(), func(r *trace.ChaosRecord) float64 { return r.AtMS }, in, w.Audit.RecordChaos)
	keep(l.Snapshots, func(s *telemetry.Snapshot) float64 { return s.AtMS }, in,
		func(s telemetry.Snapshot) { w.Snapshots = append(w.Snapshots, s) })
	return w
}

// keep passes each record of recs whose time is in to add, in order.
func keep[T any](recs []T, at func(*T) float64, in func(float64) bool, add func(T)) {
	for i := range recs {
		if in(at(&recs[i])) {
			add(recs[i])
		}
	}
}
