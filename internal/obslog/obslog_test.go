package obslog

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"nexus/internal/forensics"
	"nexus/internal/session"
	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

const ms = time.Millisecond

// sampleLog holds at least one record of every kind, including lost counts.
func sampleLog() Log {
	a := trace.NewAudit()
	a.RecordPlacement(trace.PlacementRecord{Epoch: 1, Node: "n0", Backends: []string{"be0"}, DutyMS: 50,
		Units: []trace.PlacedUnit{{Unit: "s", Session: "s", Batch: 8, Rate: 120, Members: []string{"a", "b"}}}})
	a.RecordSplit(trace.SplitRecord{Epoch: 1, Query: "q", Method: "dp", GPUs: 2.5,
		Budgets: map[string]float64{"detect": 60, "recog": 40}})
	a.RecordPlanDiff(trace.PlanDiffRecord{Epoch: 1, Cause: "initial",
		Changes: []trace.PlanChange{{Kind: "unit-added", Session: "s", Unit: "s", Node: "n0"}}})
	a.RecordDropWindow(trace.DropWindowRecord{AtMS: 1200, Backend: "be0", Unit: "s", Window: 3, Dropped: 3})
	a.RecordChaos(trace.ChaosRecord{AtMS: 900, Kind: "outage", Backend: "be0", From: "up", To: "down"})
	a.AddLost(trace.Lost{DropWindows: 4, PlanDiffs: 1})
	snap := telemetry.SnapshotOf(time.Second,
		map[string]float64{`session_good_total{session="s"}`: 12}, nil,
		map[string]telemetry.WindowStats{`backend_exec_ms{backend="be0"}`: {Count: 2, P99MS: 30, ExemplarID: 7}})
	return Log{
		Spans: []trace.Event{
			{At: 500 * ms, Kind: trace.Arrive, ReqID: 7, Session: "s"},
			{At: 1000*ms + 123, Kind: trace.Execute, ReqID: 7, Backend: "be0", Unit: "s", Batch: 8, Dur: 2500 * time.Microsecond, Inc: 3},
			{At: 1100 * ms, Kind: trace.Drop, ReqID: 8, Session: "s", Cause: "deadline"},
		},
		Audit:     a,
		Snapshots: []telemetry.Snapshot{snap},
		Alerts: []telemetry.Alert{{At: time.Second, AtMS: 1000, Rule: "slo-burn-rate", Target: "s",
			State: "firing", Value: 8.5, Detail: "burn <2x> & more"}},
		Dumps: []forensics.Dump{{AtMS: 1000, Rule: "slo-burn-rate", Target: "s", WindowMS: 5000,
			Spans: spansOf(trace.Event{At: 500 * ms, Kind: trace.Arrive, ReqID: 7, Session: "s"})}},
	}
}

// spansOf packs evs, in order, as a dump holds them.
func spansOf(evs ...trace.Event) trace.Spans {
	sessions := session.NewTable()
	tr := trace.New(len(evs), sessions)
	for _, e := range evs {
		tr.Put(trace.Span{At: e.At, Dur: e.Dur, Req: e.ReqID, Inc: e.Inc, Batch: e.Batch,
			Kind: tr.Name(string(e.Kind)), Session: sessions.Intern(e.Session), Backend: tr.Name(e.Backend),
			Unit: tr.Name(e.Unit), Cause: tr.Name(e.Cause), Detail: tr.Name(e.Detail)})
	}
	return tr.Between(math.MinInt64, math.MaxInt64)
}

func encoded(t *testing.T, l Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, l); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripEveryKind(t *testing.T) {
	in := sampleLog()
	raw := encoded(t, in)
	out, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", out, in)
	}
	if again := encoded(t, out); !bytes.Equal(again, raw) {
		t.Fatalf("re-encoding differs:\n%s\nvs\n%s", again, raw)
	}
}

// TestWriteOrder pins the merge: records ordered by at_ms, ties broken by
// kind order, the lost counts last.
func TestWriteOrder(t *testing.T) {
	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(string(encoded(t, sampleLog()))), "\n") {
		kinds = append(kinds, line[len(`{"v":1,"kind":"`):strings.Index(line, `","at_ms"`)])
	}
	want := "placement split plan_diff span chaos snapshot alert dump span span drop_window lost"
	if got := strings.Join(kinds, " "); got != want {
		t.Fatalf("kind order\n got %s\nwant %s", got, want)
	}
}

func TestReadEmpty(t *testing.T) {
	for _, in := range []string{"", "\n\n", "  \n"} {
		l, err := Read(strings.NewReader(in))
		if err != nil || !reflect.DeepEqual(l, Log{}) {
			t.Errorf("Read(%q) = %+v, %v; want an empty log", in, l, err)
		}
	}
}

// TestTornTailSkipped: a stream whose last line is torn yields every
// complete record and no error, on the batch path (Read) and on the follow
// path (Decoder).
func TestTornTailSkipped(t *testing.T) {
	raw := encoded(t, sampleLog())
	lines := bytes.SplitAfter(raw, []byte("\n"))
	lines = lines[:len(lines)-1] // SplitAfter leaves an empty tail
	complete := bytes.Join(lines[:len(lines)-1], nil)
	want, err := Read(bytes.NewReader(complete))
	if err != nil {
		t.Fatal(err)
	}
	last := lines[len(lines)-1]
	for _, torn := range [][]byte{last[:len(last)/2], append(last[:len(last)/2:len(last)/2], '\n')} {
		stream := append(append([]byte{}, complete...), torn...)
		got, err := Read(bytes.NewReader(stream))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Read with torn tail %q: %v, %d spans (want %d)", torn, err, len(got.Spans), len(want.Spans))
		}
		var followed Log
		var d Decoder
		if _, err := d.Feed(&followed, stream); err != nil || !reflect.DeepEqual(followed, want) {
			t.Fatalf("Decoder with torn tail %q: %v", torn, err)
		}
	}
}

// TestMalformedMiddleIsError: a bad line with complete lines after it can
// never become valid, on either path.
func TestMalformedMiddleIsError(t *testing.T) {
	lines := strings.SplitAfter(string(encoded(t, sampleLog())), "\n")
	lines[2] = lines[2][:len(lines[2])/2] + "\n"
	stream := strings.Join(lines, "")
	if _, err := Read(strings.NewReader(stream)); err == nil || !strings.Contains(err.Error(), "line 3: malformed") {
		t.Fatalf("Read: err = %v, want line 3 malformed", err)
	}
	var d Decoder
	if _, err := d.Feed(&Log{}, []byte(stream)); err == nil {
		t.Fatal("Decoder accepted a malformed middle line")
	}
}

func TestReadRejects(t *testing.T) {
	for _, tc := range []struct{ line, want string }{
		{`{"v":2,"kind":"alert","at_ms":0,"data":{}}`, "schema version 2"},
		{`{"kind":"alert","at_ms":0,"data":{}}`, "schema version 0"},
		{`{"v":1,"kind":"bogus","at_ms":0,"data":{}}`, "unknown record kind"},
		{`{"v":1,"kind":"alert","at_ms":-1,"data":{"at_ms":-1}}`, "outside"},
		{`{"v":1,"kind":"alert","at_ms":1e13,"data":{"at_ms":1e13}}`, "outside"},
		{`{"v":1,"kind":"alert","at_ms":5,"data":{"at_ms":6}}`, "envelope at_ms 5, record at_ms 6"},
		{`{"v":1,"kind":"span","at_ms":1,"data":{"at_ms":1,"kind":"execute","dur_ms":1e10}}`, "outside"},
		{`{"v":1,"kind":"snapshot","at_ms":0,"data":{"counters":[]}}`, "snapshot"},
		{`{"v":1,"kind":"dump","at_ms":0,"data":{"samples":[{"at_ms":-3}]}}`, "outside"},
		{`{"v":1,"kind":"dump","at_ms":0,"data":{"window_ms":-1}}`, "window_ms -1 outside"},
		{`{"v":1,"kind":"dump","at_ms":0,"data":{"window_ms":1e13}}`, "window_ms 1e+13 outside"},
		{`{"v":1,"kind":"dump","at_ms":1000,"data":{"at_ms":1000,"window_ms":500,"spans_from_ms":499}}`, "spans_from_ms 499 outside"},
		{`{"v":1,"kind":"dump","at_ms":1000,"data":{"at_ms":1000,"window_ms":500,"spans_from_ms":1001}}`, "spans_from_ms 1001 outside"},
		{`{"v":1,"kind":"dump","at_ms":1000,"data":{"at_ms":1000,"window_ms":500,"spans_from_ms":-1}}`, "spans_from_ms -1 outside"},
		{`{"v":1,"kind":"lost","at_ms":0,"data":{}}`, "not all positive"},
		{`{"v":1,"kind":"lost","at_ms":0,"data":{"chaos":-1}}`, "not all positive"},
		{`{"v":1,"kind":"placement","at_ms":0}`, "placement"},
		{`[1,2]`, "line 1"},
	} {
		if _, err := Read(strings.NewReader(tc.line + "\n")); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Read(%s): err = %v, want %q", tc.line, err, tc.want)
		}
	}
}

// TestReadRejectsSpansOutsideWindow: a dump's spans must lie in its own
// window [at_ms-window_ms, at_ms], bounded in nanoseconds as Log.Window
// bounds it. The recorder never writes any other; an edited or corrupted
// log would otherwise show foreign spans as the window's.
func TestReadRejectsSpansOutsideWindow(t *testing.T) {
	dump := func(spanMS ...string) string {
		spans := make([]string, len(spanMS))
		for i, at := range spanMS {
			spans[i] = `{"at_ms":` + at + `,"kind":"arrive","req":7,"batch":0,"dur_ms":0}`
		}
		return `{"v":1,"kind":"dump","at_ms":1000,"data":{"at_ms":1000,"rule":"r","window_ms":500,` +
			`"spans":[` + strings.Join(spans, ",") + `]}}` + "\n"
	}
	for _, at := range []string{"499.999999", "1000.000001", "0", "2000"} {
		if _, err := Read(strings.NewReader(dump("600", at))); err == nil || !strings.Contains(err.Error(), "outside the window") {
			t.Errorf("span at %sms of a [500ms, 1000ms] dump: err = %v", at, err)
		}
	}
	l, err := Read(strings.NewReader(dump("500", "750", "1000")))
	if err != nil {
		t.Fatalf("spans at the window's bounds: %v", err)
	}
	if n := l.Dumps[0].Spans.Len(); n != 3 {
		t.Fatalf("read %d spans, want 3", n)
	}
}

// TestReadRejectsWideFields: a span's batch and incarnation must fit the
// 32 bits an event holds. Read errors on a wider one rather than truncate
// it, in a span record and in a dump's window alike.
func TestReadRejectsWideFields(t *testing.T) {
	for _, c := range []struct {
		batch, inc string
		ok         bool
	}{
		{"2147483647", "4294967295", true},
		{"-2147483648", "1", true},
		{"0", "4294967296", false},
		{"2147483648", "1", false},
		{"-2147483649", "1", false},
	} {
		span := `{"at_ms":600,"kind":"execute","req":7,"batch":` + c.batch + `,"dur_ms":0,"inc":` + c.inc + `}`
		for _, line := range []string{
			`{"v":1,"kind":"span","at_ms":600,"data":` + span + "}\n",
			`{"v":1,"kind":"dump","at_ms":1000,"data":{"at_ms":1000,"rule":"r","window_ms":500,"spans":[` + span + "]}}\n",
		} {
			l, err := Read(strings.NewReader(line))
			if !c.ok {
				if err == nil || !strings.Contains(err.Error(), "wider than 32 bits") {
					t.Errorf("%s: err = %v, want a width error", line, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			evs := l.Spans
			for _, d := range l.Dumps {
				evs = append(evs, d.Spans.Events()...)
			}
			if len(evs) != 1 || fmt.Sprint(evs[0].Batch) != c.batch || fmt.Sprint(evs[0].Inc) != c.inc {
				t.Fatalf("%s: read %+v", line, evs)
			}
		}
	}
}

// snapshotLine is one snapshot record as Write emits it.
func snapshotLine(t *testing.T, atMS float64) []byte {
	t.Helper()
	return encoded(t, Log{Snapshots: []telemetry.Snapshot{{At: trace.FromMS(atMS), AtMS: atMS}}})
}

// TestDecoderByteByByte appends a record one byte at a time — the
// worst-case torn tail a follower can observe — and asserts the decoder
// never errors and emits the record exactly once, on the final newline.
func TestDecoderByteByByte(t *testing.T) {
	line := snapshotLine(t, 1500)
	var d Decoder
	var l Log
	for i, c := range line {
		if _, err := d.Feed(&l, []byte{c}); err != nil {
			t.Fatalf("byte %d (%q): unexpected error: %v", i, c, err)
		}
		if len(l.Snapshots) > 0 && i != len(line)-1 {
			t.Fatalf("byte %d (%q): snapshot emitted before the trailing newline", i, c)
		}
	}
	if len(l.Snapshots) != 1 || l.Snapshots[0].AtMS != 1500 || l.Snapshots[0].At != 1500*ms {
		t.Fatalf("decoded %+v, want one snapshot at 1500ms", l.Snapshots)
	}
}

// TestDecoderChunks covers multi-line chunks split at arbitrary points: a
// chunk carrying one and a half lines yields the complete line now and the
// rest once its tail arrives.
func TestDecoderChunks(t *testing.T) {
	a, b := snapshotLine(t, 500), snapshotLine(t, 1000)
	joined := append(append([]byte{}, a...), b...)
	cut := len(a) + len(b)/2
	var d Decoder
	var l Log
	if n, err := d.Feed(&l, joined[:cut]); err != nil || n != 1 {
		t.Fatalf("first chunk: decoded %d records, err %v; want 1", n, err)
	}
	if len(l.Snapshots) != 1 || l.Snapshots[0].AtMS != 500 {
		t.Fatalf("first chunk: got %+v, want one snapshot at 500ms", l.Snapshots)
	}
	if _, err := d.Feed(&l, joined[cut:]); err != nil {
		t.Fatal(err)
	}
	if len(l.Snapshots) != 2 || l.Snapshots[1].AtMS != 1000 {
		t.Fatalf("second chunk: got %+v, want a second snapshot at 1000ms", l.Snapshots)
	}
	if len(d.pending) != 0 {
		t.Fatalf("pending buffer not drained: %q", d.pending)
	}
}

// TestDecoderTornTailRetries pins the retry semantics: a newline-terminated
// trailing line that does not parse is held back, not fatal — the follower
// polls again rather than exiting. Only when a complete record arrives
// after it (so it can never become valid) is it corrupt.
func TestDecoderTornTailRetries(t *testing.T) {
	var d Decoder
	var l Log
	if _, err := d.Feed(&l, []byte("{\"v\":1,\"at_ms\":\n")); err != nil {
		t.Fatalf("torn tail must be held for retry, got error: %v", err)
	}
	if !reflect.DeepEqual(l, Log{}) {
		t.Fatalf("torn tail yielded records: %+v", l)
	}
	if _, err := d.Feed(&l, snapshotLine(t, 2000)); err == nil {
		t.Fatal("corrupt non-tail line must be reported, got nil error")
	}
}

func TestDecoderSkipsBlankLines(t *testing.T) {
	var d Decoder
	var l Log
	if _, err := d.Feed(&l, append([]byte("\n\n"), snapshotLine(t, 250)...)); err != nil {
		t.Fatal(err)
	}
	if len(l.Snapshots) != 1 || l.Snapshots[0].AtMS != 250 {
		t.Fatalf("got %+v, want one snapshot at 250ms", l.Snapshots)
	}
}

// TestReadLegacyDump reads a dump in the form written before dumps pointed
// into the log, with its own copies of the window's records. Read keeps the
// trigger and spans and drops the copies; the renderer takes the window's
// records from the log's planes, so the copied chaos edge (be9) is not
// shown and the log's own (be0) is.
func TestReadLegacyDump(t *testing.T) {
	in := `{"v":1,"kind":"chaos","at_ms":900,"data":{"at_ms":900,"kind":"outage","backend":"be0","to":"down"}}
{"v":1,"kind":"snapshot","at_ms":1000,"data":{"at_ms":1000}}
{"v":1,"kind":"dump","at_ms":1000,"data":{"at_ms":1000,"rule":"slo-burn-rate","target":"s","window_ms":5000,` +
		`"spans":[{"at_ms":500,"kind":"arrive","req":7,"session":"s","batch":0,"dur_ms":0}],` +
		`"placements":[{"epoch":1,"at_ms":0,"node":"n0","duty_ms":50,"occupancy":1,"units":null}],` +
		`"plan_diffs":[{"epoch":1,"at_ms":0,"cause":"initial"}],` +
		`"chaos":[{"at_ms":800,"kind":"outage","backend":"be9","to":"down"}],` +
		`"samples":[{"at_ms":1000},{"at_ms":500}]}}
`
	l, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := forensics.Dump{AtMS: 1000, Rule: "slo-burn-rate", Target: "s", WindowMS: 5000,
		Spans: spansOf(trace.Event{At: 500 * ms, Kind: trace.Arrive, ReqID: 7, Session: "s"})}
	if len(l.Dumps) != 1 || !reflect.DeepEqual(l.Dumps[0], want) {
		t.Fatalf("dumps %+v, want %+v", l.Dumps, want)
	}
	var sb strings.Builder
	if err := WriteDump(&sb, l, &l.Dumps[0]); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"captured: 1 spans, 0 placements, 0 plan diffs, 1 chaos edges, 1 samples",
		"backend=be0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump text missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "be9") {
		t.Errorf("dump text shows the legacy copy's chaos edge:\n%s", out)
	}
}

func TestRenderersNeedRecords(t *testing.T) {
	var sb strings.Builder
	for name, render := range map[string]func(*strings.Builder, Log) error{
		"trace": func(b *strings.Builder, l Log) error { return WriteTrace(b, l) },
		"blame": func(b *strings.Builder, l Log) error { return WriteBlame(b, l) },
		"top":   func(b *strings.Builder, l Log) error { return WriteTop(b, l) },
	} {
		if err := render(&sb, Log{}); err == nil {
			t.Errorf("%s rendered an empty log without error", name)
		}
	}
	if err := WriteDiff(&sb, Log{}); err != nil || sb.String() != "plan-diff history: 0 epoch(s)\n" {
		t.Errorf("diff of an empty log: %q, %v", sb.String(), err)
	}
}

func TestRenderSampleLog(t *testing.T) {
	l := sampleLog()
	var sb strings.Builder
	for _, render := range []func(*strings.Builder, Log) error{
		func(b *strings.Builder, l Log) error { return WriteTrace(b, l) },
		func(b *strings.Builder, l Log) error { return WriteBlame(b, l) },
		func(b *strings.Builder, l Log) error { return WriteDiff(b, l) },
		func(b *strings.Builder, l Log) error { return WriteTop(b, l) },
	} {
		if err := render(&sb, l); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{
		"trace: 3 events", "control-plane audit log", "(4 drop-window records discarded: log full)",
		"flight recorder: 1 dump bundle(s)", "plan-diff history: 1 epoch(s)", "FIRING: slo-burn-rate(s)",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("renderings missing %q:\n%s", want, sb.String())
		}
	}
}
