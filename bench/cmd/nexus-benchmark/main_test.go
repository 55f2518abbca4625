package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"nexus/internal/metrics"
)

// declared is the metric list of BENCHMARK.json at the repository root.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmokeWorkloads runs every workload as one tiny pass, untraced and
// traced, and checks that the result line carries exactly the metrics
// BENCHMARK.json declares, with their units.
func TestSmokeWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, decl.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range decl.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range decl.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			rep, err := run(w, options{seed: 1, passes: 1, trace: traced, short: true})
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.name, traced, err)
			}
			var buf bytes.Buffer
			if err := rep.write(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool   `json:"correct"`
				Attempted uint64 `json:"attempted"`
				Failed    uint64 `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%t: result line: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s",
					w.name, traced, res.Correct, res.Attempted, res.Failed, buf.String())
			}
			for name, m := range res.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q is not valid", w.name, name)
				}
				if unit, ok := want[name]; !ok {
					t.Errorf("%s trace=%t: metric %q is not declared", w.name, traced, name)
				} else if unit != m.Unit {
					t.Errorf("%s: metric %q has unit %q, declared %q", w.name, name, m.Unit, unit)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s trace=%t: declared metric %q missing", w.name, traced, name)
				}
			}
		}
	}
}

// TestLayerOf pins the attribution rules on hand-written stacks.
func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mapaccess2_faststr", "nexus/internal/frontend.(*Frontend).Dispatch", "main.main"}, "frontend"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "nexus/internal/backend.(*Queue).Recycle"}, "backend"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "nexus/internal/trace.(*Tracer).Events"}, "runtime"},
		{[]string{"nexus/internal/ring.(*MPSC[go.shape.struct { nexus/internal/frontend.r int }]).Pop"}, "ring"},
		{[]string{"nexus/internal/scheduler/exact.Solve"}, "scheduler"},
		{[]string{"nexus/internal/globalsched.(*Scheduler).RunEpoch.func1"}, "globalsched"},
		{[]string{"type:.eq.nexus/internal/trace.Event", "nexus/internal/forensics.(*Recorder).Trigger"}, "forensics"},
		{[]string{"nexus/internal/runner.MapN.func1"}, "other"},
		{[]string{"nexus.Run"}, "other"},
		{[]string{"syscall.Syscall6", "os.(*File).Write"}, "other"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall"}, "runtime"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// TestDecodeKnownProfile decodes a hand-encoded profile (gzipped, with an
// inlined location and both packed and unpacked repeated fields) and checks
// stacks, values, layer mapping and that the layer shares sum to 1.
func TestDecodeKnownProfile(t *testing.T) {
	var strs []string
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	str("")
	var p pbWriter
	p.msg(1, func(m *pbWriter) { m.varint(1, str("samples")); m.varint(2, str("count")) })
	p.msg(1, func(m *pbWriter) { m.varint(1, str("cpu")); m.varint(2, str("nanoseconds")) })
	funcs := []string{
		"runtime.mapaccess2_faststr",                    // 1
		"nexus/internal/frontend.(*Frontend).Dispatch",  // 2
		"nexus/internal/cluster.(*Deployment).dispatch", // 3
		"runtime.scanobject",                            // 4
		"runtime.gcBgMarkWorker",                        // 5
		"nexus/internal/simclock.(*Clock).Step",         // 6
	}
	for i, name := range funcs {
		id := uint64(i + 1)
		p.msg(5, func(m *pbWriter) { m.varint(1, id); m.varint(2, str(name)) })
	}
	// Location 1 inlines the map lookup into Dispatch: lines are leaf first.
	p.msg(4, func(m *pbWriter) {
		m.varint(1, 1)
		m.msg(4, func(l *pbWriter) { l.varint(1, 1) })
		m.msg(4, func(l *pbWriter) { l.varint(1, 2) })
	})
	for _, loc := range [][2]uint64{{2, 3}, {3, 4}, {4, 5}, {5, 6}} {
		loc := loc
		p.msg(4, func(m *pbWriter) { m.varint(1, loc[0]); m.msg(4, func(l *pbWriter) { l.varint(1, loc[1]) }) })
	}
	// Frontend sample, packed fields.
	p.msg(2, func(m *pbWriter) { m.packed(1, 1, 2); m.packed(2, 3, 30_000_000) })
	// GC sample, unpacked fields.
	p.msg(2, func(m *pbWriter) { m.varint(1, 3); m.varint(1, 4); m.varint(2, 1); m.varint(2, 10_000_000) })
	// Simulation clock sample.
	p.msg(2, func(m *pbWriter) { m.packed(1, 5); m.packed(2, 6, 60_000_000) })
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	samples, err := decodeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("decoded %d samples, want 3", len(samples))
	}
	wantStack := []string{funcs[0], funcs[1], funcs[2]}
	if strings.Join(samples[0].stack, ";") != strings.Join(wantStack, ";") || samples[0].ns != 30_000_000 {
		t.Fatalf("sample 0 = %+v, want stack %q and 30ms", samples[0], wantStack)
	}
	byLayer := ledger(samples)
	want := map[string]int64{"frontend": 30_000_000, "runtime": 10_000_000, "simclock": 60_000_000}
	if len(byLayer) != len(want) {
		t.Fatalf("ledger = %v, want %v", byLayer, want)
	}
	var total int64
	for l, ns := range byLayer {
		if want[l] != ns {
			t.Errorf("ledger[%s] = %d, want %d", l, ns, want[l])
		}
		total += ns
	}
	checkShares(t, byLayer, total)

	if _, err := decodeProfile(p.b[:len(p.b)-3]); err == nil {
		t.Error("decoding a truncated profile succeeded")
	}
}

// TestDecodeRuntimeProfile decodes a real runtime/pprof CPU profile of a
// loop inside the metrics layer.
func TestDecodeRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	var h metrics.Histogram
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		for i := 0; i < 10000; i++ {
			h.Record(time.Duration(i) * time.Microsecond)
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer := ledger(samples)
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	if total == 0 {
		t.Skip("profile recorded no samples")
	}
	checkShares(t, byLayer, total)
	if share := float64(byLayer["metrics"]) / float64(total); share < 0.5 {
		t.Errorf("metrics share = %.2f of a Histogram.Record loop, want > 0.5 (ledger %v)", share, byLayer)
	}
}

// checkShares asserts every ledger key is a known layer and the shares sum
// to 1.
func checkShares(t *testing.T, byLayer map[string]int64, total int64) {
	t.Helper()
	var sum float64
	for l, ns := range byLayer {
		known := false
		for _, k := range layers {
			known = known || k == l
		}
		if !known {
			t.Errorf("ledger has unknown layer %q", l)
		}
		sum += float64(ns) / float64(total)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self_frac sums to %v, want 1", sum)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n       int
		q, want float64
	}{
		{0, 0.99, 0.5},
		{15, 0.99, 0.5},
		{20, 0.9, 0.5},
		{50, 0.9, 0.8},
		{100, 0.9, 0.9},
		{100, 0.99, 0.9},
		{1000, 0.99, 0.99},
		{5000, 0.99, 0.99},
	} {
		if got := tailQuantile(c.n, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// TestHistQuantile checks the in-bucket interpolation stays within the
// histogram's precision and, unlike the bucket midpoint, moves with rank.
func TestHistQuantile(t *testing.T) {
	var h metrics.Histogram
	for i := 1; i <= 10000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	prev := 0.0
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		got := histQuantile(&h, q)
		exact := q * 10 // ms
		if math.Abs(got-exact)/exact > 0.02 {
			t.Errorf("histQuantile(%v) = %v ms, exact %v ms", q, got, exact)
		}
		if got <= prev {
			t.Errorf("histQuantile not increasing at q=%v: %v <= %v", q, got, prev)
		}
		prev = got
	}
	if a, b := histQuantile(&h, 0.5), histQuantile(&h, 0.5001); a == b {
		t.Errorf("neighbouring ranks in one bucket read the same value %v", a)
	}
}

// pbWriter encodes protobuf wire format for the decoder test.
type pbWriter struct{ b []byte }

func (w *pbWriter) uvarint(x uint64) {
	for x >= 0x80 {
		w.b = append(w.b, byte(x)|0x80)
		x >>= 7
	}
	w.b = append(w.b, byte(x))
}

func (w *pbWriter) varint(field int, x uint64) {
	w.uvarint(uint64(field) << 3)
	w.uvarint(x)
}

func (w *pbWriter) bytes(field int, b []byte) {
	w.uvarint(uint64(field)<<3 | 2)
	w.uvarint(uint64(len(b)))
	w.b = append(w.b, b...)
}

func (w *pbWriter) msg(field int, fill func(*pbWriter)) {
	var m pbWriter
	fill(&m)
	w.bytes(field, m.b)
}

func (w *pbWriter) packed(field int, xs ...uint64) {
	var m pbWriter
	for _, x := range xs {
		m.uvarint(x)
	}
	w.bytes(field, m.b)
}
