package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// lifecycle emits a full request span: arrive at t, enqueue at t+1ms,
// execute at t+3ms (dur 2ms), complete at t+6ms.
func lifecycle(req uint64, t time.Duration) []Event {
	return []Event{
		{At: t, Kind: Arrive, ReqID: req, Session: "s"},
		{At: t + time.Millisecond, Kind: Enqueue, ReqID: req, Session: "s", Backend: "be0", Unit: "u0", Dur: time.Millisecond},
		{At: t + 3*time.Millisecond, Kind: Execute, ReqID: req, Session: "s", Backend: "be0", Unit: "u0", Batch: 1, Dur: 2 * time.Millisecond},
		{At: t + 6*time.Millisecond, Kind: Complete, ReqID: req, Session: "s", Backend: "be0", Dur: 6 * time.Millisecond},
	}
}

func TestAnalyzeStages(t *testing.T) {
	var events []Event
	for i := 0; i < 10; i++ {
		events = append(events, lifecycle(uint64(i), time.Duration(i)*10*time.Millisecond)...)
	}
	events = append(events, Event{At: time.Second, Kind: Drop, ReqID: 99, Session: "s", Cause: "deadline"})
	events = append(events, Event{At: time.Second, Kind: Drop, ReqID: 100, Session: "s", Cause: "overload"})
	events = append(events, Event{At: time.Second, Kind: Drop, ReqID: 101, Session: "s", Cause: "overload"})

	a := Analyze(events)
	if a.Requests != 10 || a.Completed != 10 || a.Dropped != 3 {
		t.Fatalf("counts: %+v", a)
	}
	if a.Dispatch.P50 != time.Millisecond || a.Queue.P50 != 2*time.Millisecond ||
		a.GPU.P50 != 3*time.Millisecond || a.Total.P50 != 6*time.Millisecond {
		t.Fatalf("stage p50s: dispatch=%v queue=%v gpu=%v total=%v",
			a.Dispatch.P50, a.Queue.P50, a.GPU.P50, a.Total.P50)
	}
	if a.DropsByCause["deadline"] != 1 || a.DropsByCause["overload"] != 2 {
		t.Fatalf("drops by cause = %v", a.DropsByCause)
	}
	if len(a.Timelines) != 1 || a.Timelines[0].Batches != 10 {
		t.Fatalf("timelines = %+v", a.Timelines)
	}
	// 10 batches × 2ms GPU time, all inside second 0.
	if got := a.Timelines[0].Slots[0].Busy; got != 20*time.Millisecond {
		t.Fatalf("busy = %v", got)
	}
}

// Execute events are per-request; a batch of N must count once in the
// utilization timeline, not N times.
func TestAnalyzeDedupesBatches(t *testing.T) {
	var events []Event
	for i := 0; i < 4; i++ {
		events = append(events, Event{
			At: 10 * time.Millisecond, Kind: Execute, ReqID: uint64(i),
			Backend: "be0", Unit: "u0", Batch: 4, Dur: 8 * time.Millisecond,
		})
	}
	a := Analyze(events)
	if a.Timelines[0].Batches != 1 {
		t.Fatalf("batches = %d, want 1", a.Timelines[0].Batches)
	}
	if a.Timelines[0].Slots[0].Busy != 8*time.Millisecond {
		t.Fatalf("busy = %v, want 8ms", a.Timelines[0].Slots[0].Busy)
	}
	// Same timestamp on a different incarnation is a different batch
	// (post-restart events must not merge with pre-crash ones).
	events = append(events, Event{
		At: 10 * time.Millisecond, Kind: Execute, ReqID: 9,
		Backend: "be0", Unit: "u0", Batch: 1, Dur: time.Millisecond, Inc: 1,
	})
	if got := Analyze(events).Timelines[0].Batches; got != 2 {
		t.Fatalf("batches with inc bump = %d, want 2", got)
	}
}

func TestAnalyzeBatchSpansSeconds(t *testing.T) {
	events := []Event{{
		At: 900 * time.Millisecond, Kind: Execute, ReqID: 1,
		Backend: "be0", Unit: "u0", Batch: 1, Dur: 300 * time.Millisecond,
	}}
	a := Analyze(events)
	slots := a.Timelines[0].Slots
	if len(slots) != 2 || slots[0].Busy != 100*time.Millisecond || slots[1].Busy != 200*time.Millisecond {
		t.Fatalf("slots = %+v", slots)
	}
}

// TestAnalyzeClipsHugeBatch is the regression for a corrupt batch
// duration: an execute span claiming 1e10 ms of GPU time used to spread
// over 1e7 one-second slots. The spread now stops one second past the
// trace's last event.
func TestAnalyzeClipsHugeBatch(t *testing.T) {
	done := make(chan *Analysis, 1)
	go func() {
		done <- Analyze([]Event{
			{At: 100 * time.Millisecond, Kind: Arrive, ReqID: 1, Session: "s"},
			{At: 200 * time.Millisecond, Kind: Execute, ReqID: 1, Backend: "be0", Unit: "u0",
				Batch: 1, Dur: time.Duration(1e10) * time.Millisecond},
		})
	}()
	select {
	case a := <-done:
		slots := a.Timelines[0].Slots
		if len(slots) != 2 || slots[0].Busy != 800*time.Millisecond || slots[1].Busy != 200*time.Millisecond {
			t.Fatalf("slots = %+v, want 800ms then 200ms", slots)
		}
	case <-time.After(time.Second):
		t.Fatal("Analyze still running after 1s")
	}
}

func TestWriteReport(t *testing.T) {
	events := lifecycle(1, 0)
	events = append(events, Event{At: time.Millisecond, Kind: Drop, ReqID: 2, Cause: "unroutable"})
	var buf bytes.Buffer
	if err := Analyze(events).WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"1 arrived", "queue", "gpu+reply", "unroutable", "be0/u0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// Golden Chrome export: the exact serialized form is load-bearing (tools
// parse it), so pin it.
func TestWriteChromeGolden(t *testing.T) {
	events := []Event{
		{At: 1 * time.Millisecond, Kind: Arrive, ReqID: 1, Session: "game"},
		{At: 2 * time.Millisecond, Kind: Execute, ReqID: 1, Session: "game",
			Backend: "be0", Unit: "u0", Batch: 2, Dur: 1500 * time.Microsecond},
		{At: 2 * time.Millisecond, Kind: Execute, ReqID: 2, Session: "game",
			Backend: "be0", Unit: "u0", Batch: 2, Dur: 1500 * time.Microsecond},
		{At: 4 * time.Millisecond, Kind: Complete, ReqID: 1, Session: "game"},
		{At: 5 * time.Millisecond, Kind: Drop, ReqID: 3, Session: "game", Cause: "overload"},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events); err != nil {
		t.Fatal(err)
	}
	const golden = `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":0,"tid":0,"args":{"name":"frontend"}},` +
		`{"name":"game","cat":"request","ph":"b","ts":1000,"pid":0,"tid":1,"id":"req1"},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":0,"args":{"name":"be0"}},` +
		`{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"u0"}},` +
		`{"name":"game batch=2","cat":"gpu","ph":"X","ts":2000,"dur":1500,"pid":1,"tid":1,"args":{"batch":2,"inc":0}},` +
		`{"name":"game","cat":"request","ph":"e","ts":4000,"pid":0,"tid":1,"id":"req1"},` +
		`{"name":"drop:overload","cat":"drop","ph":"i","ts":5000,"pid":0,"tid":1,"s":"t","args":{"req":3,"session":"game"}}` +
		`],"displayTimeUnit":"ms"}` + "\n"
	if got := buf.String(); got != golden {
		t.Fatalf("chrome export drifted from golden:\n got: %s\nwant: %s", got, golden)
	}
	// And it must be well-formed JSON with the envelope Chrome expects.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("event count = %d", len(doc.TraceEvents))
	}
}

func TestAuditNilAndWriteText(t *testing.T) {
	var nilAudit *Audit
	nilAudit.RecordPlacement(PlacementRecord{}) // must not panic
	nilAudit.RecordSplit(SplitRecord{})
	nilAudit.RecordDropWindow(DropWindowRecord{})
	if nilAudit.Placements() != nil || nilAudit.WriteText(&bytes.Buffer{}) != nil {
		t.Fatal("nil audit should be inert")
	}

	a := NewAudit()
	a.RecordPlacement(PlacementRecord{
		Epoch: 1, Node: "gpu0", Backends: []string{"be0"}, DutyMS: 50, Occupancy: 0.8,
		Units: []PlacedUnit{{Unit: "u0", Session: "game", Batch: 8, Rate: 120,
			Members: []string{"game", "news"}}},
	})
	a.RecordSplit(SplitRecord{Epoch: 1, Query: "amber", Method: "dp", GPUs: 2.5,
		Budgets: map[string]float64{"detect": 60, "recog": 40}})
	a.RecordDropWindow(DropWindowRecord{AtMS: 1200, Backend: "be0", Unit: "u0", Window: 3, Dropped: 3})

	if len(a.Placements()) != 1 || len(a.Splits()) != 1 || len(a.DropWindows()) != 1 {
		t.Fatalf("accessors lost records: %+v", a)
	}

	var text bytes.Buffer
	if err := a.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	for _, want := range []string{"epoch 1", "gpu0", "members=[game news]", "amber", "detect=60.0ms", "be0/u0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("audit text missing %q:\n%s", want, out)
		}
	}
}

func TestAuditDropWindowBound(t *testing.T) {
	a := NewAudit()
	for i := 0; i < maxDropWindows+5; i++ {
		a.RecordDropWindow(DropWindowRecord{Dropped: 1})
	}
	if len(a.DropWindows()) != maxDropWindows || a.dropsLost != 5 {
		t.Fatalf("bound not enforced: len=%d lost=%d", len(a.DropWindows()), a.dropsLost)
	}
}
