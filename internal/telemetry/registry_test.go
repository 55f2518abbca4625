package telemetry

import (
	"testing"
	"time"
)

func TestKeyCanonicalization(t *testing.T) {
	if got := Key("queue_depth"); got != "queue_depth" {
		t.Errorf("unlabeled key: got %q", got)
	}
	if got := Key("queue_depth", "backend", "be0"); got != `queue_depth{backend="be0"}` {
		t.Errorf("single label: got %q", got)
	}
	// Labels sort by name regardless of argument order.
	a := Key("m", "zeta", "1", "alpha", "2")
	b := Key("m", "alpha", "2", "zeta", "1")
	if a != b || a != `m{alpha="2",zeta="1"}` {
		t.Errorf("label order must canonicalize: %q vs %q", a, b)
	}
}

func TestKeyOddLabelsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list must panic")
		}
	}()
	Key("m", "only-a-name")
}

func TestFamilyAndLabelValue(t *testing.T) {
	k := Key("exec_ms", "backend", "be3", "unit", "u1")
	if Family(k) != "exec_ms" {
		t.Errorf("Family: got %q", Family(k))
	}
	if Family("plain") != "plain" {
		t.Errorf("Family of unlabeled key: got %q", Family("plain"))
	}
	if v := LabelValue(k, "backend"); v != "be3" {
		t.Errorf("LabelValue backend: got %q", v)
	}
	if v := LabelValue(k, "unit"); v != "u1" {
		t.Errorf("LabelValue unit: got %q", v)
	}
	if v := LabelValue(k, "missing"); v != "" {
		t.Errorf("missing label must be empty, got %q", v)
	}
	if v := LabelValue("plain", "backend"); v != "" {
		t.Errorf("unlabeled key must yield empty, got %q", v)
	}
}

// TestLabelValuesEscaped checks that label values holding a comma, quote,
// backslash or newline are escaped in the key as the Prometheus text format
// escapes them, and read back whole.
func TestLabelValuesEscaped(t *testing.T) {
	for _, tc := range []struct{ id, key string }{
		{"a,b", `m{backend="be0",session="a,b"}`},
		{`q"x`, `m{backend="be0",session="q\"x"}`},
		{`back\slash`, `m{backend="be0",session="back\\slash"}`},
		{"new\nline", `m{backend="be0",session="new\nline"}`},
		{`\"`, `m{backend="be0",session="\\\""}`},
		{`end\`, `m{backend="be0",session="end\\"}`},
	} {
		k := Key("m", "session", tc.id, "backend", "be0")
		if k != tc.key {
			t.Errorf("Key for %q: got %s, want %s", tc.id, k, tc.key)
		}
		if v := LabelValue(k, "session"); v != tc.id {
			t.Errorf("LabelValue(%s, session) = %q, want %q", k, v, tc.id)
		}
		if v := LabelValue(k, "backend"); v != "be0" {
			t.Errorf("LabelValue(%s, backend) = %q, want be0", k, v)
		}
		// The value comes first when its label sorts first.
		k = Key("m", "session", tc.id, "unit", "u1")
		if v := LabelValue(k, "unit"); v != "u1" {
			t.Errorf("LabelValue(%s, unit) = %q, want u1", k, v)
		}
	}
}

func TestCounterSemantics(t *testing.T) {
	var c Counter
	c.Set(10) // pull-style raise
	c.Set(5)  // lower: ignored, counters never decrease
	if c.Value() != 10 {
		t.Errorf("after sets: %v", c.Value())
	}
}

func TestGaugeSemantics(t *testing.T) {
	var g Gauge
	g.Set(4)
	g.Set(2) // gauges may fall
	if g.Value() != 2 {
		t.Errorf("gauge: %v", g.Value())
	}
}

func TestNilInstrumentsNoop(t *testing.T) {
	var c *Counter
	var g *Gauge
	var w *Window
	c.Set(1)
	g.Set(1)
	w.Observe(time.Second)
	if c.Value() != 0 || g.Value() != 0 {
		t.Error("nil instruments must read zero")
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Window("x") != nil {
		t.Error("nil registry must hand out nil instruments")
	}
	s := r.Sample(time.Second)
	if s.cols != nil || s.vals != nil || s.wins != nil {
		t.Error("nil registry must sample empty")
	}
	if s.At != time.Second {
		t.Errorf("sample must still be stamped: %v", s.At)
	}
}

func TestRegistryIdentityAndSample(t *testing.T) {
	r := NewRegistry()
	if r.Counter("hits", "s", "a") != r.Counter("hits", "s", "a") {
		t.Error("same key must return the same counter")
	}
	r.Counter("hits", "s", "a").Set(7)
	r.Gauge("depth").Set(3)
	r.Window("exec_ms", "backend", "be0").Observe(20 * time.Millisecond)
	r.Window("exec_ms", "backend", "be0").Observe(40 * time.Millisecond)

	s := r.Sample(2 * time.Second)
	if v, ok := s.Counter(Key("hits", "s", "a")); !ok || v != 7 {
		t.Errorf("counter in snapshot: %v %v", v, ok)
	}
	if v, ok := s.Gauge("depth"); !ok || v != 3 {
		t.Errorf("gauge in snapshot: %v %v", v, ok)
	}
	ws, ok := s.Window(Key("exec_ms", "backend", "be0"))
	if !ok || ws.Count != 2 {
		t.Fatalf("window in snapshot: %+v %v", ws, ok)
	}
	if ws.MeanMS < 25 || ws.MeanMS > 35 {
		t.Errorf("window mean: %v", ws.MeanMS)
	}
	if ws.MaxMS < 39 || ws.MaxMS > 45 {
		t.Errorf("window max: %v", ws.MaxMS)
	}

	// Sampling rotates the window: the next sample sees an empty one.
	s2 := r.Sample(3 * time.Second)
	if ws2, _ := s2.Window(Key("exec_ms", "backend", "be0")); ws2.Count != 0 {
		t.Errorf("window must reset on sample, got count %d", ws2.Count)
	}
	// Counters persist across samples.
	if v, _ := s2.Counter(Key("hits", "s", "a")); v != 7 {
		t.Errorf("counter must persist: %v", v)
	}
}

func TestSnapshotKeysScansAllStores(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "id", "b").Set(1)
	r.Gauge("m", "id", "a").Set(1)
	r.Window("m", "id", "c").Observe(time.Millisecond)
	r.Counter("other").Set(1)
	s := r.Sample(time.Second)
	keys := s.Keys("m")
	want := []string{Key("m", "id", "a"), Key("m", "id", "b"), Key("m", "id", "c")}
	if len(keys) != 3 {
		t.Fatalf("got %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("keys[%d] = %q, want %q (sorted across stores)", i, keys[i], want[i])
		}
	}
}
