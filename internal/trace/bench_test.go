package trace

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"nexus/internal/session"
)

// betweenSink keeps BenchmarkTracerBetween's captures live.
var betweenSink Spans

// BenchmarkTracerBetween takes what a traffic-chaos flight-recorder dump
// takes: a 2 s window, ~137k spans, out of a full 2^18-span ring whose
// spans are interleaved request lifecycles across six sessions and four
// backends, recorded through handles as the request path records them.
func BenchmarkTracerBetween(b *testing.B) {
	const capacity = 1 << 18
	tr := New(capacity, nil)
	spans := trafficSpans(tr, capacity)
	to := spans[len(spans)-1].At
	for _, s := range spans {
		tr.Put(s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		betweenSink = tr.Between(to-2*time.Second, to)
	}
	b.ReportMetric(float64(betweenSink.Len()), "spans/op")
}

// BenchmarkAnalyze and BenchmarkAttributeBlame read the events of a full
// 2^18-span ring of trafficSpans, as `nexus-obs trace` and `blame` read a
// traced traffic-chaos log.
func BenchmarkAnalyze(b *testing.B) {
	events := ringEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysisSink = Analyze(events)
	}
}

func BenchmarkAttributeBlame(b *testing.B) {
	events := ringEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blameSink = AttributeBlame(events)
	}
}

// analysisSink and blameSink keep the readers' results live.
var (
	analysisSink *Analysis
	blameSink    []RequestBlame
)

// ringEvents returns the events of a full 2^18-span ring of trafficSpans.
func ringEvents() []Event {
	const capacity = 1 << 18
	tr := New(capacity, nil)
	for _, s := range trafficSpans(tr, capacity) {
		tr.Put(s)
	}
	return tr.Events()
}

// trafficSpans returns n time-ordered spans, named through tr's tables: a
// request arrives every ~73µs on average, so a span lands every ~14.6µs
// as in traffic-chaos, and each is routed, enqueued ~1 ms later, executed
// in a batch for 5–30 ms, and completed, or dropped one time in eight.
func trafficSpans(tr *Tracer, n int) []Span {
	rng := rand.New(rand.NewSource(1))
	var sessions []session.Handle
	for _, id := range []string{"game-0", "game-1", "game-2", "traffic/det", "traffic/car", "traffic/face"} {
		sessions = append(sessions, tr.sessions.Intern(id))
	}
	backends := []Name{tr.Name("be0"), tr.Name("be1"), tr.Name("be2"), tr.Name("be3")}
	deadline := tr.Name("deadline")
	var out []Span
	arrive := time.Duration(0)
	for req := uint64(1); len(out) < n; req++ {
		arrive += time.Duration(21+rng.Intn(100)) * time.Microsecond
		s := sessions[rng.Intn(len(sessions))]
		be := backends[rng.Intn(len(backends))]
		unit := tr.Name(tr.sessions.ID(s) + "/" + tr.names.ID(session.Handle(be)))
		enq := arrive + time.Duration(500+rng.Intn(1000))*time.Microsecond
		exec := enq + time.Duration(rng.Intn(20))*time.Millisecond
		gpu := time.Duration(5+rng.Intn(25)) * time.Millisecond
		out = append(out,
			Span{At: arrive, Kind: ArriveName, Req: req, Session: s},
			Span{At: arrive, Kind: RouteName, Req: req, Session: s, Backend: be, Unit: unit},
			Span{At: enq, Kind: EnqueueName, Req: req, Session: s, Backend: be, Unit: unit, Dur: enq - arrive})
		if rng.Intn(8) == 0 {
			out = append(out, Span{At: exec, Kind: DropName, Req: req, Session: s, Backend: be, Dur: exec - arrive, Cause: deadline})
			continue
		}
		out = append(out,
			Span{At: exec, Kind: ExecuteName, Req: req, Session: s, Backend: be, Unit: unit, Batch: int32(1 + rng.Intn(32)), Dur: gpu, Inc: 1},
			Span{At: exec + gpu, Kind: CompleteName, Req: req, Session: s, Backend: be, Dur: exec + gpu - arrive})
	}
	out = out[:n]
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
