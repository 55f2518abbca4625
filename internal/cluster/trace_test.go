package cluster

import (
	"bytes"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/obslog"
	"nexus/internal/runner"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// kindCounts counts events by kind.
func kindCounts(events []trace.Event) map[trace.Kind]int {
	out := make(map[trace.Kind]int)
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

func TestTracingCapturesLifecycle(t *testing.T) {
	d, err := New(Config{
		System: Nexus, Features: AllFeatures(), GPUs: 2, Seed: 1,
		Epoch: 10 * time.Second, TraceCapacity: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddSession(globalsched.SessionSpec{
		ID: "s", ModelID: model.GoogLeNetCar, SLO: 100 * time.Millisecond, ExpectedRate: 50,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	tr := d.Tracer()
	if tr == nil {
		t.Fatal("tracer not enabled")
	}
	sum := kindCounts(tr.Events())
	if sum[trace.Arrive] == 0 || sum[trace.Execute] == 0 || sum[trace.Complete] == 0 {
		t.Fatalf("lifecycle events missing: %v", sum)
	}
	// Every completed request retained in the window has a positive latency.
	for id, lat := range requestLatency(tr.Events()) {
		if lat <= 0 {
			t.Fatalf("request %d latency %v", id, lat)
		}
	}
}

// TestTraceMetricsAgreement drives an overloaded deployment and checks
// that the trace's per-cause drop counts and completion count reconcile
// exactly with the metrics recorder — the trace is evidence, not an
// estimate. Warmup is disabled so every request is on both ledgers, and
// the ring is sized so nothing is evicted.
func TestTraceMetricsAgreement(t *testing.T) {
	d, err := New(Config{
		System: Nexus, Features: AllFeatures(), GPUs: 1, Seed: 7,
		Epoch: 10 * time.Second, Warmup: -1, TraceCapacity: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Declared rate is a fraction of what the generator offers: the plan
	// under-provisions, forcing deadline/overload drops.
	if err := d.AddSession(globalsched.SessionSpec{
		ID: "hot", ModelID: model.GoogLeNetCar, SLO: 60 * time.Millisecond, ExpectedRate: 80,
	}, workload.Uniform{Rate: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	tr := d.Tracer()
	events := tr.Events()
	if tr.Total() != uint64(len(events)) {
		t.Fatalf("ring evicted events (%d recorded, %d retained); enlarge TraceCapacity", tr.Total(), len(events))
	}

	var completes uint64
	byCause := make(map[string]uint64)
	for _, e := range events {
		switch e.Kind {
		case trace.Complete:
			completes++
		case trace.Drop:
			byCause[e.Cause]++
		}
	}
	s := d.Recorder.Session("hot")
	if s.Lost() == 0 {
		t.Fatal("overload run produced no drops; test is vacuous")
	}
	want := map[string]uint64{
		"deadline":   s.Dropped,
		"unroutable": s.Unroutable,
		"reconfig":   s.Reconfig,
		"overload":   s.Overload,
		"failure":    s.Failed,
	}
	for cause, n := range want {
		if byCause[cause] != n {
			t.Errorf("cause %q: trace has %d drops, metrics %d", cause, byCause[cause], n)
		}
	}
	for cause := range byCause {
		if _, ok := want[cause]; !ok {
			t.Errorf("trace drop cause %q unknown to the metrics taxonomy", cause)
		}
	}
	if completes != s.Completed {
		t.Errorf("trace has %d completes, metrics %d", completes, s.Completed)
	}
	// With warmup off, every sent request produced exactly one Arrive.
	if n := kindCounts(tr.Events())[trace.Arrive]; n != int(s.Sent) {
		t.Errorf("trace has %d arrives, metrics sent %d", n, s.Sent)
	}
}

// TestTraceDeterminism asserts the serialized trace and audit log (the
// observation log's span and audit records) are byte-identical across runs
// and across runner parallelism settings: tracing must observe the
// simulation, never perturb it. CI runs this under -race.
func TestTraceDeterminism(t *testing.T) {
	runTraced := func(workers int) []byte {
		prev := runner.SetDefaultWorkers(workers)
		defer runner.SetDefaultWorkers(prev)
		d, err := New(Config{
			System: Nexus, Features: AllFeatures(), GPUs: 2, Seed: 42,
			Epoch: 10 * time.Second, TraceCapacity: 1 << 16, Audit: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddSession(globalsched.SessionSpec{
			ID: "s", ModelID: model.GoogLeNetCar, SLO: 100 * time.Millisecond, ExpectedRate: 120,
		}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(8 * time.Second); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := obslog.Write(&buf, obslog.Log{Spans: d.Tracer().Events(), Audit: d.Audit()}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := runTraced(1)
	if again := runTraced(1); !bytes.Equal(serial, again) {
		t.Fatal("trace differs across identical serial runs")
	}
	if par := runTraced(8); !bytes.Equal(serial, par) {
		t.Fatal("trace differs between workers=1 and workers=8")
	}
}

func TestTracingDisabledByDefault(t *testing.T) {
	d, err := New(Config{System: Nexus, Features: AllFeatures(), GPUs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Tracer() != nil {
		t.Fatal("tracer should be nil unless enabled")
	}
}

// TestHugeTraceCapacity: a trace capacity far beyond memory is accepted,
// since the ring allocates its storage as events arrive. The first events
// cost at most one chunk of the ring (2^16 events), and the deployment
// then runs and traces.
func TestHugeTraceCapacity(t *testing.T) {
	d, err := New(Config{
		System: Nexus, Features: AllFeatures(), GPUs: 2, Seed: 1,
		Epoch: 10 * time.Second, TraceCapacity: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunkBytes = (1 << 16) * unsafe.Sizeof(trace.Event{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		d.Tracer().Put(trace.Span{At: time.Duration(i), Kind: trace.ArriveName, Req: uint64(i)})
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(chunkBytes)+1<<16 {
		t.Fatalf("recording 10 events allocated %d B, want at most one %d B chunk plus slack", grew, chunkBytes)
	}
	if err := d.AddSession(globalsched.SessionSpec{
		ID: "s", ModelID: model.GoogLeNetCar, SLO: 100 * time.Millisecond, ExpectedRate: 50,
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := kindCounts(d.Tracer().Events()); got[trace.Complete] == 0 {
		t.Fatalf("no completions traced: %v", got)
	}
}
