package trace_test

import (
	"bytes"
	"testing"
	"time"

	"nexus/internal/obslog"
	"nexus/internal/trace"
)

// Spans reach disk as span records of the observation log; decoding them
// must give back the tracer's events exactly.
func TestWriteJSONRoundTrip(t *testing.T) {
	tr := trace.New(4, nil)
	tr.Record(trace.Event{At: time.Millisecond, Kind: trace.Execute, ReqID: 1, Backend: "be0", Unit: "u",
		Batch: 8, Dur: 2500 * time.Microsecond, Inc: 3})
	tr.Record(trace.Event{At: 7*time.Millisecond + 123*time.Nanosecond, Kind: trace.Drop, ReqID: 2,
		Session: "s", Batch: 0, Cause: "deadline"})
	var buf bytes.Buffer
	if err := obslog.Write(&buf, obslog.Log{Spans: tr.Events()}); err != nil {
		t.Fatal(err)
	}
	l, err := obslog.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	decoded := l.Spans
	if len(decoded) != 2 {
		t.Fatalf("round trip = %+v", decoded)
	}
	for i, want := range tr.Events() {
		if decoded[i] != want {
			t.Fatalf("event %d: got %+v want %+v", i, decoded[i], want)
		}
	}
}
