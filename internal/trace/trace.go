// Package trace is the cluster's observability layer. It records the
// lifecycle of requests moving through a Nexus deployment as span-structured
// events — frontend arrival, route decision, enqueue after the network hop,
// batch execution on the GPU, and completion or drop — and the control
// plane's per-epoch decisions as an audit log (squishy-bin-packing
// placements, query latency splits, early-drop window culls).
//
// Traces answer the questions the paper's design motivates: which duty
// cycle a session landed in (§6.1), how a complex query's SLO budget was
// split (§6.2), and which window early-drop culled (§4.3). Exporters
// include the JSON wire form (millisecond timestamps; the observation log in
// internal/obslog carries it), Chrome trace-event format
// (chrome://tracing-loadable, see chrome.go), and per-stage latency
// breakdowns (analyze.go) printed by `nexus-obs trace`.
//
// Tracing is allocation-conscious: events go into a fixed-capacity ring of
// packed, pointer-free records whose storage is allocated as it fills, the
// request path records with name handles resolved in advance, and a nil
// *Tracer is a valid no-op so the data plane never branches on
// configuration.
package trace

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"nexus/internal/session"
)

// Kind classifies an event.
type Kind string

// Event kinds, in lifecycle order.
const (
	Arrive   Kind = "arrive"   // request entered the frontend
	Route    Kind = "route"    // frontend picked a backend/unit (smooth WRR)
	Enqueue  Kind = "enqueue"  // entered the unit's queue after the network hop
	Execute  Kind = "execute"  // included in a batch submitted to the GPU
	Complete Kind = "complete" // response delivered
	Drop     Kind = "drop"     // dropped (admission control, reconfig, failure, ...)
)

// Event is one lifecycle record. The Dur field carries the span the event
// closes, by kind: Enqueue — time since frontend arrival (dispatch + network
// hop); Execute — the batch's planned GPU latency (utilization timelines);
// Complete and Drop — total time in system. Inc tags Execute events with the
// backend's incarnation so events from before a crash do not attribute to
// the restarted node. Batch and Inc have the widths a packed Span stores.
type Event struct {
	At      time.Duration
	Kind    Kind
	ReqID   uint64
	Session string
	Backend string
	Unit    string
	Batch   int32
	Inc     uint32
	Dur     time.Duration
	Cause   string // drop cause, matching the backend outcome taxonomy
	Detail  string
}

// eventJSON is the wire form: timestamps and durations in milliseconds with
// explicit units (raw nanosecond integers are unreadable in dumps), and
// batch without omitempty — a legitimate batch-size-0 record must stay
// distinguishable from an unset field.
type eventJSON struct {
	AtMS    float64 `json:"at_ms"`
	Kind    Kind    `json:"kind"`
	ReqID   uint64  `json:"req"`
	Session string  `json:"session,omitempty"`
	Backend string  `json:"backend,omitempty"`
	Unit    string  `json:"unit,omitempty"`
	Batch   int64   `json:"batch"`
	DurMS   float64 `json:"dur_ms"`
	Inc     uint64  `json:"inc,omitempty"`
	Cause   string  `json:"cause,omitempty"`
	Detail  string  `json:"detail,omitempty"`
}

// MS converts a duration to milliseconds for export.
func MS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// MaxMS bounds exported times and durations (about 11.6 days). Up to it a
// millisecond float converts back to the exact nanosecond it came from;
// well past it the conversion loses nanoseconds, and past ~9.2e12 it
// overflows time.Duration.
const MaxMS = 1e9

// ValidMS reports whether ms is a decodable time or duration: finite,
// non-negative, and at most MaxMS.
func ValidMS(ms float64) bool { return ms >= 0 && ms <= MaxMS }

// FromMS converts exported milliseconds back to a duration, rounding to the
// nearest nanosecond so a marshal/unmarshal round trip is exact for every
// ValidMS value.
func FromMS(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// MarshalJSON implements json.Marshaler using the millisecond wire schema.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		AtMS: MS(e.At), Kind: e.Kind, ReqID: e.ReqID, Session: e.Session,
		Backend: e.Backend, Unit: e.Unit, Batch: int64(e.Batch), DurMS: MS(e.Dur),
		Inc: uint64(e.Inc), Cause: e.Cause, Detail: e.Detail,
	})
}

// UnmarshalJSON implements json.Unmarshaler for the millisecond wire schema.
// It rejects times and durations that fail ValidMS, and a batch or
// incarnation wider than an Event holds, rather than truncate them.
func (e *Event) UnmarshalJSON(data []byte) error {
	var w eventJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if !ValidMS(w.AtMS) || !ValidMS(w.DurMS) {
		return fmt.Errorf("trace: event at_ms=%v dur_ms=%v outside [0, %g]", w.AtMS, w.DurMS, MaxMS)
	}
	if w.Batch < math.MinInt32 || w.Batch > math.MaxInt32 || w.Inc > math.MaxUint32 {
		return fmt.Errorf("trace: event batch=%d inc=%d wider than 32 bits", w.Batch, w.Inc)
	}
	*e = Event{
		At: FromMS(w.AtMS), Kind: w.Kind, ReqID: w.ReqID, Session: w.Session,
		Backend: w.Backend, Unit: w.Unit, Batch: int32(w.Batch), Dur: FromMS(w.DurMS),
		Inc: uint32(w.Inc), Cause: w.Cause, Detail: w.Detail,
	}
	return nil
}

// Name is a handle into a name table: it stands for a backend, unit, kind,
// cause or detail string in a packed Span. Handle 0 is "". A Span's
// session is a handle in a session.Table instead.
type Name uint32

// The kinds' handles, the same in every name table.
const (
	ArriveName Name = iota + 1
	RouteName
	EnqueueName
	ExecuteName
	CompleteName
	DropName
)

// newNames returns a name table (a session.Table of strings, whose
// handles are Names) holding "" and the six kinds at their fixed handles.
func newNames() *session.Table {
	n := session.NewTable()
	for _, k := range []Kind{Arrive, Route, Enqueue, Execute, Complete, Drop} {
		n.Intern(string(k))
	}
	return n
}

// pack returns e as a record, interning its session in sessions and its
// other strings in names.
func pack(e *Event, names, sessions *session.Table) Span {
	name := func(v string) Name { return Name(names.Intern(v)) }
	return Span{
		At: e.At, Dur: e.Dur, Req: e.ReqID, Inc: e.Inc, Batch: e.Batch,
		Kind: name(string(e.Kind)), Session: sessions.Intern(e.Session), Backend: name(e.Backend),
		Unit: name(e.Unit), Cause: name(e.Cause), Detail: name(e.Detail),
	}
}

// Tracer is a bounded in-memory event recorder. A nil Tracer discards
// events. Tracer is not safe for concurrent use; the simulation is
// single-threaded by design.
//
// The ring holds packed Spans whose names are handles into the tracer's
// name table, and whose sessions are handles into the session table it
// reads them through (its deployment's). Callers intern their names once,
// at control-plane speed (Name), and record with Put, which interns
// nothing.
//
// The ring is stored as chunks of chunkEvents slots, each allocated on its
// first write, so a tracer's memory follows what it has recorded and never
// exceeds its capacity: a large ring that records little costs little.
// Chunks are never moved or freed, and once the ring wraps, recording
// allocates nothing.
type Tracer struct {
	chunks   [][]Span
	capacity int
	next     int
	total    uint64
	filter   func(req uint64) bool
	names    *session.Table
	sessions *session.Table
}

// chunkEvents is the size of one ring chunk (2^16 spans, ~3.7 MB). Smaller
// chunks measured a higher peak RSS for a full 2^18-event ring
// (results/trace_ring.md).
const (
	chunkShift  = 16
	chunkEvents = 1 << chunkShift
	chunkMask   = chunkEvents - 1
)

// New creates a tracer holding up to capacity events (older events are
// overwritten) whose spans name sessions by their handles in sessions (nil
// = a table of the tracer's own). Storage is allocated as events arrive,
// so New itself costs the same at any capacity. Capacity below 1 panics.
func New(capacity int, sessions *session.Table) *Tracer {
	if capacity < 1 {
		panic("trace: capacity must be >= 1")
	}
	if sessions == nil {
		sessions = session.NewTable()
	}
	return &Tracer{capacity: capacity, names: newNames(), sessions: sessions}
}

// SetFilter installs a predicate on request IDs; events of requests
// failing it are discarded. A nil predicate accepts everything.
func (t *Tracer) SetFilter(f func(req uint64) bool) {
	if t == nil {
		return
	}
	t.filter = f
}

// Name returns the handle of v in the tracer's name table, interning v if
// it is new. Callers resolve their names once, off the request path, and
// record with the handles. A nil tracer interns nothing and returns 0.
func (t *Tracer) Name(v string) Name {
	if t == nil {
		return 0
	}
	return Name(t.names.Intern(v))
}

// Put appends a record whose names are this tracer's handles and whose
// session is a handle in its session table (no-op on a nil tracer). A filtered record is discarded before touching the ring: it
// advances neither the write cursor nor the total, so a filter cannot
// evict retained events.
func (t *Tracer) Put(s Span) {
	if t == nil {
		return
	}
	if t.filter != nil && !t.filter(s.Req) {
		return
	}
	*t.slot() = s
}

// slot advances the cursor and returns the slot it passed. It allocates
// only while the ring fills for the first time, one chunk per chunkEvents
// events.
func (t *Tracer) slot() *Span {
	c := t.next >> chunkShift
	if c == len(t.chunks) {
		t.grow()
	}
	s := &t.chunks[c][t.next&chunkMask]
	t.next++
	t.total++
	if t.next == t.capacity {
		t.next = 0
	}
	return s
}

// grow appends the chunk that starts at the cursor: chunkEvents slots, or
// the rest of the capacity if that is less.
func (t *Tracer) grow() {
	t.chunks = append(t.chunks, make([]Span, min(chunkEvents, t.capacity-t.next)))
}

// wrapped reports whether the ring has filled, so its oldest event sits at
// the cursor.
func (t *Tracer) wrapped() bool { return t.total >= uint64(t.capacity) }

// Overwritten reports whether the ring has overwritten any span and, if it
// has, the time of the oldest span it still holds: the ring covers only
// from there on.
func (t *Tracer) Overwritten() (oldest time.Duration, ok bool) {
	if t == nil || t.total <= uint64(t.capacity) {
		return 0, false
	}
	return t.chunks[t.next>>chunkShift][t.next&chunkMask].At, true
}

// Total returns how many events were recorded (including overwritten ones).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// runs calls f with the retained records as contiguous runs of the ring,
// oldest first. A run may be empty.
func (t *Tracer) runs(f func([]Span)) {
	c, i := t.next>>chunkShift, t.next&chunkMask
	if t.wrapped() {
		f(t.chunks[c][i:])
		for _, ch := range t.chunks[c+1:] {
			f(ch)
		}
	}
	for _, ch := range t.chunks[:c] {
		f(ch)
	}
	if c < len(t.chunks) {
		f(t.chunks[c][:i])
	}
}

// Events returns the retained events in chronological order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	n := t.next
	if t.wrapped() {
		n = t.capacity
	}
	out := make([]Event, 0, n)
	sessions := t.sessions.IDs()
	t.runs(func(run []Span) {
		for i := range run {
			out = append(out, unpack(&run[i], t.names.IDs(), sessions))
		}
	})
	return out
}

// Between returns the retained events with from <= At <= to, in
// chronological order, as Spans. It walks the ring in place twice: once to
// count the matching records and sum their encoded lengths, so the
// encoding is allocated once at its exact size, and once to encode them.
// The copy shares the name and session tables as they stand: both only
// append, so those prefixes never change.
func (t *Tracer) Between(from, to time.Duration) Spans {
	if t == nil {
		return Spans{}
	}
	n, size := 0, 0
	var c codec
	t.runs(func(run []Span) {
		for i := range run {
			if at := run[i].At; at >= from && at <= to {
				n++
				size += c.size(&run[i])
			}
		}
	})
	if n == 0 {
		return Spans{}
	}
	enc := make([]byte, 0, size)
	c = codec{}
	t.runs(func(run []Span) {
		for i := range run {
			if at := run[i].At; at >= from && at <= to {
				enc = c.append(enc, &run[i])
			}
		}
	})
	return Spans{enc: enc, n: n, names: t.names.IDs(), sessions: t.sessions.IDs()}
}
