package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"nexus/internal/session"
)

// Spans is a compact copy of a window of events, the form a flight-recorder
// dump keeps them in for the rest of the run. Each event is one Span; names
// and sessions hold the strings its handles stand for: the tracer's name
// and session tables as they stood at capture, or tables built while
// decoding.
//
// The zero Spans is empty. Spans marshals to exactly the bytes of the
// []Event it holds.
type Spans struct {
	recs     []Span
	names    []string // names[0] is ""
	sessions []string // indexed by session handle; sessions[0] is ""
}

// Span is one packed event, the record a tracer's ring and a dump store:
// 56 bytes with no pointers, so the garbage collector never scans them.
// Its names are handles into a name table and its session a handle into a
// session table; an Event is 128 bytes, most of them string headers.
type Span struct {
	At, Dur time.Duration
	Req     uint64
	Inc     uint32
	Batch   int32

	Kind    Name
	Session session.Handle

	Backend, Unit, Cause, Detail Name
}

// Len returns the number of spans.
func (s Spans) Len() int { return len(s.recs) }

// At returns the time of the i-th span.
func (s Spans) At(i int) time.Duration { return s.recs[i].At }

// Events unpacks the spans, in order (nil when there are none).
func (s Spans) Events() []Event {
	if len(s.recs) == 0 {
		return nil
	}
	out := make([]Event, len(s.recs))
	for i := range s.recs {
		out[i] = unpack(&s.recs[i], s.names, s.sessions)
	}
	return out
}

// unpack returns r as an Event, its handles resolved through names and its
// session through sessions.
func unpack(r *Span, names, sessions []string) Event {
	return Event{
		At: r.At, Kind: Kind(names[r.Kind]), ReqID: r.Req, Session: sessions[r.Session],
		Backend: names[r.Backend], Unit: names[r.Unit], Batch: r.Batch, Inc: r.Inc,
		Dur: r.Dur, Cause: names[r.Cause], Detail: names[r.Detail],
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
		e, err := unpack(&s.recs[i], s.names, s.sessions).MarshalJSON()
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
	var recs []Span
	n, sessions := newNames(), session.NewTable()
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return err
		}
		recs = append(recs, n.pack(&e, sessions))
	}
	if len(recs) == 0 {
		*s = Spans{}
		return nil
	}
	*s = Spans{recs: recs, names: n.list, sessions: sessions.IDs()}
	return nil
}
