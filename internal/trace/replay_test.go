package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// replayKinds maps a script byte to an event kind.
var replayKinds = []Kind{Arrive, Route, Enqueue, Execute, Complete, Drop}

// decodeScript turns fuzz bytes into an event stream, five bytes an event:
// kind; request ID (six IDs, so IDs recur); backend, unit and incarnation
// (bits 0–2, two of each); time (0–15 ms, in any order); and the duration
// (0–7 ms), which also picks the batch size and the drop cause. The small
// ranges make batches shared by several requests, and batches on one
// backend and unit that differ only by incarnation, common.
func decodeScript(data []byte) []Event {
	causes := []string{"", "deadline", "overload"}
	var events []Event
	for ; len(data) >= 5; data = data[5:] {
		req, loc, aux := uint64(data[1]%6), data[2], data[4]%8
		e := Event{
			At: time.Duration(data[3]%16) * time.Millisecond, Kind: replayKinds[int(data[0])%len(replayKinds)],
			ReqID: req, Session: []string{"s0", "s1"}[req%2],
		}
		switch e.Kind {
		case Route, Enqueue, Execute:
			e.Backend = []string{"b0", "b1"}[loc&1]
			e.Unit = []string{"u0", "u1"}[loc>>1&1]
		}
		switch e.Kind {
		case Execute:
			e.Inc, e.Batch = uint32(loc>>2&1), int32(aux%4)
			e.Dur = time.Duration(aux) * time.Millisecond
		case Drop:
			e.Cause = causes[int(aux)%len(causes)]
		}
		events = append(events, e)
	}
	return events
}

// checkReplay compares Analyze, AttributeBlame and WriteChrome with the
// pre-replay oracles on one event stream.
func checkReplay(t *testing.T, events []Event) {
	t.Helper()
	if got, want := Analyze(events), oracleAnalyze(events); !reflect.DeepEqual(got, want) {
		t.Fatalf("Analyze = %+v\noracle  = %+v\nevents: %+v", got, want, events)
	}
	if got, want := AttributeBlame(events), oracleAttributeBlame(events); !reflect.DeepEqual(got, want) {
		t.Fatalf("AttributeBlame = %+v\noracle         = %+v\nevents: %+v", got, want, events)
	}
	var got, want bytes.Buffer
	if err := WriteChrome(&got, events); err != nil {
		t.Fatal(err)
	}
	if err := oracleWriteChrome(&want, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteChrome = %s\noracle      = %s\nevents: %+v", got.String(), want.String(), events)
	}
}

// FuzzReplay checks the three readers of the span replay against the
// oracles on every script. The committed corpus covers missing Arrives,
// reused request IDs, batches shared across incarnations, a batch whose
// first member has no span, and a batch member that executes after another
// member completed.
func FuzzReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkReplay(t, decodeScript(data)) })
}

// TestReplayMatchesOracles runs checkReplay on 2,000 random scripts.
func TestReplayMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		data := make([]byte, 5*(1+rng.Intn(40)))
		rng.Read(data)
		checkReplay(t, decodeScript(data))
	}
}

// TestReplayBatchCloseAtCompletion: a request's stall ends at its batch's
// close as of its own completion, not at a later member's enqueue.
func TestReplayBatchCloseAtCompletion(t *testing.T) {
	events := []Event{
		{At: 0, Kind: Arrive, ReqID: 1, Session: "s"},
		{At: 1 * ms, Kind: Enqueue, ReqID: 1, Backend: "b0", Unit: "u"},
		{At: 5 * ms, Kind: Execute, ReqID: 1, Backend: "b0", Unit: "u", Dur: 2 * ms},
		{At: 8 * ms, Kind: Complete, ReqID: 1},
		{At: 0, Kind: Arrive, ReqID: 2, Session: "s"},
		{At: 4 * ms, Kind: Enqueue, ReqID: 2, Backend: "b0", Unit: "u"},
		{At: 5 * ms, Kind: Execute, ReqID: 2, Backend: "b0", Unit: "u", Dur: 2 * ms},
		{At: 8 * ms, Kind: Complete, ReqID: 2},
	}
	b := AttributeBlame(events)
	if len(b) != 2 || b[0].Stall != 0 || b[0].Queue != 4*ms || b[1].Stall != 0 || b[1].Queue != ms {
		t.Fatalf("blames = %+v, want stall 0 and queue 4ms then 1ms", b)
	}
	checkReplay(t, events)
}

// TestReplayTrackedBatchEnd: a batch's interval for interference ends at
// its first member with a span, not at a member without one seen earlier.
func TestReplayTrackedBatchEnd(t *testing.T) {
	events := []Event{
		{At: 0, Kind: Arrive, ReqID: 1, Session: "s"},
		{At: 1 * ms, Kind: Enqueue, ReqID: 1, Backend: "b0", Unit: "u0"},
		{At: 2 * ms, Kind: Execute, ReqID: 1, Backend: "b0", Unit: "u0", Dur: 6 * ms},
		{At: 3 * ms, Kind: Execute, ReqID: 2, Backend: "b0", Unit: "u1", Dur: 1 * ms},
		{At: 0, Kind: Arrive, ReqID: 3, Session: "s"},
		{At: 1 * ms, Kind: Enqueue, ReqID: 3, Backend: "b0", Unit: "u1"},
		{At: 3 * ms, Kind: Execute, ReqID: 3, Backend: "b0", Unit: "u1", Dur: 5 * ms},
		{At: 9 * ms, Kind: Complete, ReqID: 1},
	}
	b := AttributeBlame(events)
	if len(b) != 1 || b[0].Interference != 5*ms {
		t.Fatalf("blames = %+v, want 5ms interference", b)
	}
	checkReplay(t, events)
}
