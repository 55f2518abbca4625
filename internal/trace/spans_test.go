package trace_test

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"nexus/internal/forensics"
	"nexus/internal/trace"
)

// randomEvents draws n events whose fields take the values the wire form
// must keep apart: empty strings, batch 0, and set or unset Inc, Cause and
// Detail. Like an empty window's, zero events are nil.
func randomEvents(rng *rand.Rand, n int) []trace.Event {
	if n == 0 {
		return nil
	}
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	kinds := []trace.Kind{trace.Arrive, trace.Route, trace.Enqueue, trace.Execute, trace.Complete, trace.Drop, ""}
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{
			At:      time.Duration(rng.Int63n(int64(trace.MaxMS) * int64(time.Millisecond))),
			Kind:    kinds[rng.Intn(len(kinds))],
			ReqID:   uint64(rng.Intn(4)) * rng.Uint64(),
			Session: pick("", "game-0", "traffic/det", `quote"s\`),
			Backend: pick("", "be0", "be12"),
			Unit:    pick("", "u0", "game-0/ssd"),
			Batch:   int32(rng.Intn(3) * rng.Intn(64)),
			Dur:     time.Duration(rng.Intn(2) * rng.Intn(int(time.Second))),
			Inc:     uint32(rng.Intn(2) * rng.Intn(9)),
			Cause:   pick("", "deadline", "overload"),
			Detail:  pick("", "no route", "<b>&</b>"),
		}
	}
	return evs
}

// packed returns evs as a dump holds them.
func packed(evs []trace.Event) trace.Spans {
	tr := trace.New(max(len(evs), 1), nil)
	for _, e := range evs {
		tr.Record(e)
	}
	return tr.Between(math.MinInt64, math.MaxInt64)
}

// parentDump is a dump's wire form with the spans as a plain event slice.
type parentDump struct {
	AtMS     float64       `json:"at_ms"`
	Rule     string        `json:"rule"`
	Target   string        `json:"target,omitempty"`
	Value    float64       `json:"value,omitempty"`
	Detail   string        `json:"detail,omitempty"`
	WindowMS float64       `json:"window_ms"`
	Spans    []trace.Event `json:"spans,omitempty"`
}

// TestSpansWireIdentical: packed spans marshal to exactly the bytes of the
// events they hold, decode back to those events, and a dump whose window
// holds none omits "spans".
func TestSpansWireIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 17, 500} {
		evs := randomEvents(rng, n)
		s := packed(evs)
		if s.Len() != n {
			t.Fatalf("packed %d events into %d spans", n, s.Len())
		}
		want, err := json.Marshal(evs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: spans marshal to\n%s\nwant\n%s", n, got, want)
		}
		var back trace.Spans
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if ev := back.Events(); !reflect.DeepEqual(ev, evs) {
			t.Fatalf("n=%d: round trip gave %+v, want %+v", n, ev, evs)
		}

		d := forensics.Dump{AtMS: 1000, Rule: "slo-burn-rate", Target: "s", WindowMS: 5000, Spans: s}
		p := parentDump{AtMS: 1000, Rule: "slo-burn-rate", Target: "s", WindowMS: 5000, Spans: evs}
		gotDump, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		wantDump, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotDump, wantDump) {
			t.Fatalf("n=%d: dump marshals to\n%s\nwant\n%s", n, gotDump, wantDump)
		}
		if has := strings.Contains(string(gotDump), `"spans"`); has != (n > 0) {
			t.Fatalf("n=%d: dump %s: spans present %t", n, gotDump, has)
		}
	}
}

// TestSpansUnmarshalChecks: decoding spans applies every check an event's
// own decoding does.
func TestSpansUnmarshalChecks(t *testing.T) {
	for _, bad := range []string{
		`[{"at_ms":-1,"kind":"arrive","req":1,"batch":0,"dur_ms":0}]`,
		`[{"at_ms":1,"kind":"arrive","req":1,"batch":0,"dur_ms":1e10}]`,
		`[{"at_ms":"1"}]`,
		`{"at_ms":1}`,
		`7`,
	} {
		var s trace.Spans
		if err := json.Unmarshal([]byte(bad), &s); err == nil {
			t.Errorf("decoded %s into %d spans", bad, s.Len())
		}
	}
	s := packed(randomEvents(rand.New(rand.NewSource(2)), 3))
	if err := json.Unmarshal([]byte("null"), &s); err != nil || s.Len() != 0 {
		t.Fatalf("null decoded to %d spans, %v", s.Len(), err)
	}
}
