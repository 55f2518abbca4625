package telemetry

import (
	"testing"
	"time"

	"nexus/internal/trace"
)

// snapAt builds a synthetic snapshot for rule tests.
func snapAt(at time.Duration, counters, gauges map[string]float64, windows map[string]WindowStats) Snapshot {
	s := Snapshot{At: at, AtMS: trace.MS(at), Counters: map[string]float64{}, Gauges: map[string]float64{}, Windows: map[string]WindowStats{}}
	for k, v := range counters {
		s.Counters[k] = v
	}
	for k, v := range gauges {
		s.Gauges[k] = v
	}
	for k, v := range windows {
		s.Windows[k] = v
	}
	return s
}

func TestHistoryCounterDelta(t *testing.T) {
	h := &History{}
	key := Key("session_good_total", "session", "s")
	for i := 0; i <= 5; i++ {
		h.snaps = append(h.snaps, snapAt(time.Duration(i)*time.Second,
			map[string]float64{key: float64(10 * i)}, nil, nil))
	}
	if d, ok := h.CounterDelta(key, 2*time.Second); !ok || d != 20 {
		t.Errorf("delta over 2s: %v %v", d, ok)
	}
	if _, ok := h.CounterDelta(key, time.Hour); ok {
		t.Error("window beyond history must report !ok")
	}
	if _, ok := h.CounterDelta("absent", 2*time.Second); ok {
		t.Error("absent counter must report !ok")
	}
}

func TestHistoryTransitions(t *testing.T) {
	h := &History{}
	key := Key("backend_up", "backend", "be0")
	ups := []float64{1, 0, 1, 0, 0}
	for i, v := range ups {
		h.snaps = append(h.snaps, snapAt(time.Duration(i)*time.Second, nil,
			map[string]float64{key: v}, nil))
	}
	if n := h.Transitions(key, 10*time.Second); n != 3 {
		t.Errorf("transitions over full history: %d, want 3", n)
	}
	// Narrow window: only the last flip (1→0 at t=3) is inside, with the
	// pre-window value as baseline.
	if n := h.Transitions(key, 1500*time.Millisecond); n != 1 {
		t.Errorf("transitions over 1.5s: %d, want 1", n)
	}
}

// burnSnaps drives a session through healthy → burning → recovered phases,
// one snapshot per second.
func burnSnaps(seconds int, badStart, badStop int) []Snapshot {
	good := Key("session_good_total", "session", "s")
	bad := Key("session_bad_total", "session", "s")
	var out []Snapshot
	g, b := 0.0, 0.0
	for i := 0; i <= seconds; i++ {
		if i > 0 {
			if i > badStart && i <= badStop {
				g += 40
				b += 20 // 33% bad ≫ 1% budget
			} else {
				g += 60
			}
		}
		out = append(out, snapAt(time.Duration(i)*time.Second,
			map[string]float64{good: g, bad: b}, nil, nil))
	}
	return out
}

func TestBurnRateFiresAndResolves(t *testing.T) {
	e := NewEngine([]Rule{BurnRate{Short: time.Second, Long: 3 * time.Second, Threshold: 4}})
	for _, s := range burnSnaps(20, 5, 10) {
		e.Observe(s)
	}
	alerts := e.Alerts()
	if len(alerts) < 2 {
		t.Fatalf("want a firing and a resolve, got %+v", alerts)
	}
	first := alerts[0]
	if first.Rule != "slo-burn-rate" || first.Target != "s" || first.State != "firing" {
		t.Fatalf("first alert: %+v", first)
	}
	// Burn starts after t=5s; both windows must agree, so firing lands in
	// (5s, 10s]; it must resolve after recovery.
	if first.At <= 5*time.Second || first.At > 10*time.Second {
		t.Errorf("firing at %v, want within the burn phase", first.At)
	}
	last := alerts[len(alerts)-1]
	if last.State != "resolved" || last.At <= first.At {
		t.Errorf("last alert must resolve later: %+v", last)
	}
	if len(e.Firing()) != 0 {
		t.Errorf("nothing should still fire: %v", e.Firing())
	}
}

func TestBurnRateHonorsMinSent(t *testing.T) {
	e := NewEngine([]Rule{BurnRate{Short: time.Second, Long: 3 * time.Second, Threshold: 4, MinSent: 1e6}})
	for _, s := range burnSnaps(20, 5, 10) {
		e.Observe(s)
	}
	if len(e.Alerts()) != 0 {
		t.Errorf("below MinSent nothing may fire: %+v", e.Alerts())
	}
}

func TestBurnRateNeedsBothWindows(t *testing.T) {
	// One bad second inside an otherwise healthy run: the short window
	// spikes but the long window stays under threshold.
	e := NewEngine([]Rule{BurnRate{Short: time.Second, Long: 10 * time.Second, Threshold: 30}})
	for _, s := range burnSnaps(20, 5, 6) {
		e.Observe(s)
	}
	for _, a := range e.Alerts() {
		t.Errorf("short-window blip must not fire alone: %+v", a)
	}
}

func TestQueueSaturation(t *testing.T) {
	key := Key("backend_queue_depth", "backend", "be0")
	e := NewEngine([]Rule{QueueSaturation{Limit: 100, Consecutive: 2}})
	depths := []float64{10, 150, 20, 150, 151, 0}
	for i, d := range depths {
		e.Observe(snapAt(time.Duration(i)*time.Second, nil, map[string]float64{key: d}, nil))
	}
	alerts := e.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("want fire+resolve, got %+v", alerts)
	}
	// A single saturated sample (t=1s) must not fire; two consecutive
	// (t=3s,4s) fire at t=4s; the drain at t=5s resolves.
	if alerts[0].At != 4*time.Second || alerts[0].State != "firing" || alerts[0].Target != "be0" {
		t.Errorf("firing: %+v", alerts[0])
	}
	if alerts[1].At != 5*time.Second || alerts[1].State != "resolved" {
		t.Errorf("resolved: %+v", alerts[1])
	}
}

func TestStraggler(t *testing.T) {
	e := NewEngine([]Rule{Straggler{}})
	mk := func(at time.Duration, slow float64) Snapshot {
		w := map[string]WindowStats{}
		for _, be := range []string{"be0", "be1", "be2"} {
			w[Key("backend_exec_ms", "backend", be)] = WindowStats{Count: 10, MeanMS: 10}
		}
		w[Key("backend_exec_ms", "backend", "be3")] = WindowStats{Count: 10, MeanMS: slow}
		return snapAt(at, nil, nil, w)
	}
	// Uniform fleet: no alert (zero variance is skipped, not divided by).
	e.Observe(mk(time.Second, 10))
	if len(e.Alerts()) != 0 {
		t.Fatalf("uniform fleet fired: %+v", e.Alerts())
	}
	// be3 at 30ms vs fleet 10ms: z = (30-15)/8.66 ≈ 1.73, ratio 2× fleet mean.
	e.Observe(mk(2*time.Second, 30))
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != "gpu-straggler" || alerts[0].Target != "be3" {
		t.Fatalf("want be3 straggler, got %+v", alerts)
	}
	// Back to uniform: resolves.
	e.Observe(mk(3*time.Second, 10))
	if got := e.Alerts(); got[len(got)-1].State != "resolved" {
		t.Errorf("want resolve, got %+v", got[len(got)-1])
	}
}

func TestStragglerIgnoresIdleGPUs(t *testing.T) {
	e := NewEngine([]Rule{Straggler{}})
	w := map[string]WindowStats{
		Key("backend_exec_ms", "backend", "be0"): {Count: 10, MeanMS: 10},
		Key("backend_exec_ms", "backend", "be1"): {Count: 10, MeanMS: 10},
		// Too few batches to be considered — also drops peers below MinPeers.
		Key("backend_exec_ms", "backend", "be2"): {Count: 1, MeanMS: 500},
	}
	e.Observe(snapAt(time.Second, nil, nil, w))
	if len(e.Alerts()) != 0 {
		t.Errorf("idle GPU must not count: %+v", e.Alerts())
	}
}

func TestBackendFlap(t *testing.T) {
	key := Key("backend_up", "backend", "be1")
	e := NewEngine([]Rule{BackendFlap{Win: 10 * time.Second, Transitions: 3}})
	ups := []float64{1, 0, 1, 0}
	var at time.Duration
	for i, v := range ups {
		at = time.Duration(i) * time.Second
		e.Observe(snapAt(at, nil, map[string]float64{key: v}, nil))
	}
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != "backend-flap" || alerts[0].Target != "be1" {
		t.Fatalf("want one flap alert, got %+v", alerts)
	}
	if alerts[0].At != at || alerts[0].Value != 3 {
		t.Errorf("flap alert detail: %+v", alerts[0])
	}
}

func TestEngineNilAndHistoryTrim(t *testing.T) {
	var nilEngine *Engine
	nilEngine.Observe(Snapshot{}) // must not panic
	if nilEngine.Alerts() != nil || nilEngine.Firing() != nil {
		t.Error("nil engine must return nil logs")
	}

	e := NewEngine(nil) // no rules: keep defaults to 10s
	for i := 0; i < 100; i++ {
		e.Observe(snapAt(time.Duration(i)*time.Second, nil, nil, nil))
	}
	if n := len(e.hist.snaps); n > 13 {
		t.Errorf("history must trim to the keep window, got %d snapshots", n)
	}
	latest := e.hist.Latest()
	if latest == nil || latest.At != 99*time.Second {
		t.Errorf("latest after trim: %+v", latest)
	}
}

func TestDefaultRules(t *testing.T) {
	rules := DefaultRules()
	if len(rules) != 4 {
		t.Fatalf("want 4 default rules, got %d", len(rules))
	}
	names := map[string]bool{}
	for _, r := range rules {
		names[r.Name()] = true
		if r.Window() <= 0 {
			t.Errorf("rule %s has no window", r.Name())
		}
	}
	for _, want := range []string{"slo-burn-rate", "queue-saturation", "gpu-straggler", "backend-flap"} {
		if !names[want] {
			t.Errorf("missing default rule %s", want)
		}
	}
}
