package trace

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"nexus/internal/session"
)

// spansFrom reads a span sequence from data. Each field takes a header
// byte: its low nibble is how many of the bytes after it (at most 8) form
// the value, little-endian, and bit 4 negates it. At and Req add the value
// to the previous span's, so they step forward or back by any amount;
// every other field is the value, truncated to its width. Missing bytes
// read as zero.
func spansFrom(data []byte) []Span {
	next := func() uint64 {
		if len(data) == 0 {
			return 0
		}
		h := data[0]
		data = data[1:]
		n := min(int(h&15), 8, len(data))
		var v uint64
		for i, b := range data[:n] {
			v |= uint64(b) << (8 * i)
		}
		data = data[n:]
		if h&16 != 0 {
			v = -v
		}
		return v
	}
	var out []Span
	var prev Span
	for len(data) > 0 {
		var s Span
		s.At = prev.At + time.Duration(next())
		s.Req = prev.Req + next()
		s.Dur = time.Duration(next())
		s.Inc = uint32(next())
		s.Batch = int32(next())
		s.Kind = Name(next())
		s.Session = session.Handle(next())
		s.Backend = Name(next())
		s.Unit = Name(next())
		s.Cause = Name(next())
		s.Detail = Name(next())
		out = append(out, s)
		prev = s
	}
	return out
}

// walked returns the spans s decodes to.
func walked(s Spans) []Span {
	var out []Span
	_ = s.Walk(func(sp Span) error {
		out = append(out, sp)
		return nil
	})
	return out
}

// checkSpanCodec: the span sequence data describes comes back bit-exact
// from the codec, whose size matches what it appends span by span, and
// from a ring's Between, whose encoding fills its one allocation exactly.
// The plain []Span is the oracle.
func checkSpanCodec(t *testing.T, data []byte) {
	want := spansFrom(data)
	var c, sizer codec
	var enc []byte
	for i := range want {
		n := len(enc)
		enc = c.append(enc, &want[i])
		if size := sizer.size(&want[i]); size != len(enc)-n {
			t.Fatalf("span %d %+v: size %d, append wrote %d bytes", i, want[i], size, len(enc)-n)
		}
	}
	if got := walked(Spans{enc: enc, n: len(want)}); !slices.Equal(got, want) {
		t.Fatalf("codec round trip:\n got %+v\nwant %+v", got, want)
	}
	if len(want) == 0 {
		return
	}
	tr := New(len(want), nil)
	for _, s := range want {
		tr.Put(s)
	}
	s := tr.Between(math.MinInt64, math.MaxInt64)
	if s.Len() != len(want) || len(s.enc) != cap(s.enc) || len(s.enc) != len(enc) {
		t.Fatalf("Between: %d spans in %d of %d bytes, want %d spans in exactly %d", s.Len(), len(s.enc), cap(s.enc), len(want), len(enc))
	}
	if got := walked(s); !slices.Equal(got, want) {
		t.Fatalf("Between round trip:\n got %+v\nwant %+v", got, want)
	}
}

// TestSpanCodecRoundTrip runs checkSpanCodec on seeded random sequences.
func TestSpanCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		data := make([]byte, rng.Intn(400))
		rng.Read(data)
		checkSpanCodec(t, data)
	}
}

// FuzzSpanCodec is checkSpanCodec over fuzzed sequences, seeded by the
// committed corpus under testdata/fuzz: all-zero spans, At and Req going
// backwards, Dur at MaxInt64 with a negative Batch, and MaxUint32 handles.
func FuzzSpanCodec(f *testing.F) {
	f.Fuzz(checkSpanCodec)
}

// TestSpanWalkStops: Walk stops at the first error its callback returns
// and hands it back.
func TestSpanWalkStops(t *testing.T) {
	tr := New(8, nil)
	for i := range 5 {
		tr.Record(ev(i, Arrive, uint64(i)))
	}
	stop := errors.New("stop")
	seen := 0
	err := tr.Between(0, time.Second).Walk(func(Span) error {
		if seen++; seen == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || seen != 3 {
		t.Fatalf("Walk returned %v after %d spans, want the callback's error after 3", err, seen)
	}
}
