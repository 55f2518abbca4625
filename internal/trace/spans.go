package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"time"

	"nexus/internal/session"
)

// Spans is a compact copy of a window of events, the form a flight-recorder
// dump keeps them in for the rest of the run: the spans delta-encoded into
// one byte slice (see codec). names and sessions hold the strings the
// spans' handles stand for: the tracer's name and session tables as they
// stood at capture, or tables built while decoding.
//
// The zero Spans is empty. Spans marshals to exactly the bytes of the
// []Event it holds.
type Spans struct {
	enc      []byte
	n        int
	names    []string // names[0] is ""
	sessions []string // indexed by session handle; sessions[0] is ""
}

// Span is one packed event, the record a tracer's ring stores: 56 bytes
// with no pointers, so the garbage collector never scans them. Its names
// are handles into a name table and its session a handle into a session
// table; an Event is 128 bytes, most of them string headers.
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
func (s Spans) Len() int { return s.n }

// Walk decodes the spans in order, passing each to f, and stops at the
// first error f returns.
func (s Spans) Walk(f func(Span) error) error {
	var c codec
	b := s.enc
	for len(b) > 0 {
		var sp Span
		sp, b = c.next(b)
		if err := f(sp); err != nil {
			return err
		}
	}
	return nil
}

// Events unpacks the spans, in order (nil when there are none).
func (s Spans) Events() []Event {
	if s.n == 0 {
		return nil
	}
	out := make([]Event, 0, s.n)
	_ = s.Walk(func(sp Span) error {
		out = append(out, unpack(&sp, s.names, s.sessions))
		return nil
	})
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
	if s.n == 0 {
		return []byte("null"), nil
	}
	b := []byte{'['}
	err := s.Walk(func(sp Span) error {
		if len(b) > 1 {
			b = append(b, ',')
		}
		e, err := unpack(&sp, s.names, s.sessions).MarshalJSON()
		b = append(b, e...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return append(b, ']'), nil
}

// UnmarshalJSON reads a JSON array of events, packing and encoding each as
// it is decoded. Every event passes Event.UnmarshalJSON's checks.
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
	var (
		enc   []byte
		count int
		c     codec
	)
	n, sessions := newNames(), session.NewTable()
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			return err
		}
		sp := pack(&e, n, sessions)
		enc = c.append(enc, &sp)
		count++
	}
	if count == 0 {
		*s = Spans{}
		return nil
	}
	*s = Spans{enc: enc, n: count, names: n.IDs(), sessions: sessions.IDs()}
	return nil
}

// codec is the span encoding's state: the At and Req of the previous span,
// which the next one is written relative to. The zero codec starts a
// sequence.
//
// A span is a flag byte, then varints: its kind, the zig-zag deltas of At
// and Req from the previous span, and each optional field whose flag bit
// is set, in bit order. The eight optional fields (see optional) are
// written, and their bits set, only when non-zero. Spans are time-ordered
// and their handles small, so most encode in under 10 bytes.
type codec struct {
	at  time.Duration
	req uint64
}

// optional returns s's optional fields as the codec writes them, in flag
// bit order; signed fields are zig-zagged.
func optional(s *Span) (dur, inc, batch, sess, backend, unit, cause, detail uint64) {
	return zigzag(int64(s.Dur)), uint64(s.Inc), zigzag(int64(s.Batch)), uint64(s.Session),
		uint64(s.Backend), uint64(s.Unit), uint64(s.Cause), uint64(s.Detail)
}

// size returns the encoded length of s, advancing c past it as append
// would. It does not branch on the fields, so a pass that sizes a window
// costs little beside the one that encodes it. The kind and the deltas
// are always written, so they take a byte even when zero (the |1).
func (c *codec) size(s *Span) int {
	dur, inc, batch, sess, backend, unit, cause, detail := optional(s)
	n := 1 + varintLen(uint64(s.Kind)|1) +
		varintLen(zigzag(int64(s.At-c.at))|1) + varintLen(zigzag(int64(s.Req-c.req))|1) +
		varintLen(dur) + varintLen(inc) + varintLen(batch) + varintLen(sess) +
		varintLen(backend) + varintLen(unit) + varintLen(cause) + varintLen(detail)
	c.at, c.req = s.At, s.Req
	return n
}

// append appends s's encoding to b and advances c past it.
func (c *codec) append(b []byte, s *Span) []byte {
	dur, inc, batch, sess, backend, unit, cause, detail := optional(s)
	b = append(b, nz(dur)|nz(inc)<<1|nz(batch)<<2|nz(sess)<<3|nz(backend)<<4|nz(unit)<<5|nz(cause)<<6|nz(detail)<<7)
	b = binary.AppendUvarint(b, uint64(s.Kind))
	b = binary.AppendUvarint(b, zigzag(int64(s.At-c.at)))
	b = binary.AppendUvarint(b, zigzag(int64(s.Req-c.req)))
	for _, v := range [...]uint64{dur, inc, batch, sess, backend, unit, cause, detail} {
		if v != 0 {
			b = binary.AppendUvarint(b, v)
		}
	}
	c.at, c.req = s.At, s.Req
	return b
}

// nz returns 1 for a non-zero v, else 0, without branching.
func nz(v uint64) byte { return byte((v | -v) >> 63) }

// next decodes the span at the start of b, returning it and the rest of b,
// and advances c past it. b must start with a span append wrote.
func (c *codec) next(b []byte) (Span, []byte) {
	flags := b[0]
	b = b[1:]
	kind, b := uvarint(b)
	at, b := uvarint(b)
	req, b := uvarint(b)
	var opt [8]uint64
	for i := range opt {
		if flags&(1<<i) != 0 {
			opt[i], b = uvarint(b)
		}
	}
	c.at += time.Duration(unzigzag(at))
	c.req += uint64(unzigzag(req))
	return Span{
		At: c.at, Dur: time.Duration(unzigzag(opt[0])), Req: c.req, Inc: uint32(opt[1]),
		Batch: int32(unzigzag(opt[2])), Kind: Name(kind), Session: session.Handle(opt[3]),
		Backend: Name(opt[4]), Unit: Name(opt[5]), Cause: Name(opt[6]), Detail: Name(opt[7]),
	}, b
}

// uvarint decodes the varint at the start of b, returning it and the rest
// of b.
func uvarint(b []byte) (uint64, []byte) {
	v, n := binary.Uvarint(b)
	return v, b[n:]
}

// varintLen returns the length of v's varint encoding, or 0 for v = 0,
// which an optional field does not write.
func varintLen(v uint64) int { return (bits.Len64(v) + 6) / 7 }

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }
