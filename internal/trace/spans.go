package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Spans is a compact copy of a window of events, the form a flight-recorder
// dump keeps them in for the rest of the run. Each event is one 64-byte
// record with no pointers, so the garbage collector never scans it; its
// strings are indices into a name table built when the window is captured.
// An Event in the ring is 136 bytes, most of them string headers.
//
// The zero Spans is empty. Spans marshals to exactly the bytes of the
// []Event it holds.
type Spans struct {
	recs  []span
	names []string // names[0] is ""
}

// span is one packed Event.
type span struct {
	at, dur  time.Duration
	req, inc uint64
	batch    int64

	// Indices into Spans.names.
	kind, session, backend, unit, cause, detail uint32
}

// Len returns the number of spans.
func (s Spans) Len() int { return len(s.recs) }

// At returns the time of the i-th span.
func (s Spans) At(i int) time.Duration { return s.recs[i].at }

// Events unpacks the spans, in order (nil when there are none).
func (s Spans) Events() []Event {
	if len(s.recs) == 0 {
		return nil
	}
	out := make([]Event, len(s.recs))
	for i := range s.recs {
		out[i] = s.event(i)
	}
	return out
}

func (s Spans) event(i int) Event {
	r, n := &s.recs[i], s.names
	return Event{
		At: r.at, Kind: Kind(n[r.kind]), ReqID: r.req, Session: n[r.session],
		Backend: n[r.backend], Unit: n[r.unit], Batch: int(r.batch), Dur: r.dur,
		Inc: r.inc, Cause: n[r.cause], Detail: n[r.detail],
	}
}

// MarshalJSON writes the spans as the JSON array of their events.
func (s Spans) MarshalJSON() ([]byte, error) {
	if len(s.recs) == 0 {
		return []byte("null"), nil
	}
	b := []byte{'['}
	for i := range s.recs {
		if i > 0 {
			b = append(b, ',')
		}
		e, err := s.event(i).MarshalJSON()
		if err != nil {
			return nil, err
		}
		b = append(b, e...)
	}
	return append(b, ']'), nil
}

// UnmarshalJSON reads a JSON array of events, packing each as it is
// decoded. Every event passes Event.UnmarshalJSON's checks.
func (s *Spans) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if tok == nil {
		*s = Spans{}
		return nil
	}
	if tok != json.Delim('[') {
		return fmt.Errorf("trace: spans: want an array, got %v", tok)
	}
	var recs []span
	in := interner{}
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return err
		}
		recs = append(recs, in.pack(&e))
	}
	*s = in.spans(recs)
	return nil
}

// interner numbers each distinct string of a capture once.
type interner map[string]uint32

// pack returns e as a record, interning its strings.
func (in interner) pack(e *Event) span {
	return span{
		at: e.At, dur: e.Dur, req: e.ReqID, inc: e.Inc, batch: int64(e.Batch),
		kind: in.id(string(e.Kind)), session: in.id(e.Session), backend: in.id(e.Backend),
		unit: in.id(e.Unit), cause: in.id(e.Cause), detail: in.id(e.Detail),
	}
}

// id returns v's index in the name table; "" is always 0.
func (in interner) id(v string) uint32 {
	if v == "" {
		return 0
	}
	i, ok := in[v]
	if !ok {
		i = uint32(len(in) + 1)
		in[v] = i
	}
	return i
}

// spans returns recs with the name table their indices point into.
func (in interner) spans(recs []span) Spans {
	if len(recs) == 0 {
		return Spans{}
	}
	names := make([]string, len(in)+1)
	for v, i := range in {
		names[i] = v
	}
	return Spans{recs: recs, names: names}
}
