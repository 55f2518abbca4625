package telemetry

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"
)

// snapAt builds a synthetic snapshot for the stream-helper tests.
func snapAt(at time.Duration, counters, gauges map[string]float64) Snapshot {
	return SnapshotOf(at, counters, gauges, nil)
}

// ticks drives a fresh collector through one Tick per second, from t=0s,
// calling set before each to publish that second's instrument values.
func ticks(seconds int, set func(r *Registry, i int)) *Collector {
	c := NewCollector(Config{})
	for i := 0; i <= seconds; i++ {
		set(c.Registry(), i)
		c.Tick(time.Duration(i) * time.Second)
	}
	return c
}

// logLines renders the alert log one transition per line.
func logLines(alerts []Alert) []string {
	var out []string
	for _, a := range alerts {
		out = append(out, fmt.Sprintf("%v %s %s(%s)", a.At, a.State, a.Rule, a.Target))
	}
	return out
}

func checkLog(t *testing.T, c *Collector, want ...string) {
	t.Helper()
	if got := logLines(c.Alerts()); !reflect.DeepEqual(got, want) {
		t.Errorf("alert log:\n got %q\nwant %q", got, want)
	}
}

func TestHistoryCounterDelta(t *testing.T) {
	key := Key("session_good_total", "session", "s")
	var snaps []Snapshot
	for i := 0; i <= 5; i++ {
		snaps = append(snaps, snapAt(time.Duration(i)*time.Second, map[string]float64{key: float64(10 * i)}, nil))
	}
	if d, ok := counterDelta(snaps, key, "", 2*time.Second); !ok || d != 20 {
		t.Errorf("delta over 2s: %v %v", d, ok)
	}
	// Window edge: a snapshot exactly one window back is the baseline.
	if d, ok := counterDelta(snaps, key, "", 5*time.Second); !ok || d != 50 {
		t.Errorf("delta over the whole stream: %v %v", d, ok)
	}
	// Between samples, the newest snapshot at least a window back is used.
	if d, ok := counterDelta(snaps, key, "", 1500*time.Millisecond); !ok || d != 20 {
		t.Errorf("delta over 1.5s: %v %v", d, ok)
	}
	if _, ok := counterDelta(snaps, key, "", 5001*time.Millisecond); ok {
		t.Error("window beyond the stream must report !ok")
	}
	// A key split into family and labels finds the same series; a sibling
	// family's does not.
	if d, ok := counterDelta(snaps, "session_good_total", `{session="s"}`, 2*time.Second); !ok || d != 20 {
		t.Errorf("delta by family and labels: %v %v", d, ok)
	}
	for _, fam := range []string{"session_bad_total", "session_good", "session_good_total_x"} {
		if _, ok := counterDelta(snaps, fam, `{session="s"}`, 2*time.Second); ok {
			t.Errorf("family %s must not match %s", fam, key)
		}
	}
	if _, ok := counterDelta(snaps, "absent", "", 2*time.Second); ok {
		t.Error("absent counter must report !ok")
	}
	// A counter missing from the baseline counts from zero; one that fell
	// reports no growth.
	late := slices.Clone(snaps)
	late[3] = snapAt(3*time.Second, nil, nil)
	if d, ok := counterDelta(late, key, "", 2*time.Second); !ok || d != 50 {
		t.Errorf("delta from a missing baseline: %v %v", d, ok)
	}
	fallen := slices.Clone(snaps)
	fallen[5] = snapAt(5*time.Second, map[string]float64{key: 1}, nil)
	if d, ok := counterDelta(fallen, key, "", 2*time.Second); !ok || d != 0 {
		t.Errorf("delta of a fallen counter: %v %v", d, ok)
	}
}

func TestHistoryTransitions(t *testing.T) {
	key := Key("backend_up", "backend", "be0")
	var snaps []Snapshot
	for i, v := range []float64{1, 0, 1, 0, 0} {
		snaps = append(snaps, snapAt(time.Duration(i)*time.Second, nil, map[string]float64{key: v}))
	}
	if n := transitions(nil, snaps, key); n != 3 {
		t.Errorf("transitions over the whole stream: %d, want 3", n)
	}
	// The baseline's value counts against the window's first sample.
	if n := transitions(&snaps[2], snaps[3:], key); n != 1 {
		t.Errorf("transitions after a baseline: %d, want 1", n)
	}
	// Missing samples are bridged with the last seen value.
	gap := []Snapshot{snaps[1], snapAt(2*time.Second, nil, nil), snaps[3]}
	if n := transitions(&snaps[0], gap, key); n != 1 {
		t.Errorf("transitions across a gap: %d, want 1", n)
	}
}

// burnTicks drives session "s" at 60 finished requests per second, of
// which `bad` per second are bad during (badStart, badStop].
func burnTicks(seconds, badStart, badStop int, bad float64) *Collector {
	var g, b float64
	return ticks(seconds, func(r *Registry, i int) {
		switch {
		case i == 0:
		case i > badStart && i <= badStop:
			g, b = g+60-bad, b+bad
		default:
			g += 60
		}
		r.Counter("session_good_total", "session", "s").Set(g)
		r.Counter("session_bad_total", "session", "s").Set(b)
	})
}

func TestBurnRateFiresAndResolves(t *testing.T) {
	// 20 of 60 bad is 33x the 1% budget. At 6s the short window is all
	// burn and the long one (1s, 6s] is 6.7x. At 11s the short window is
	// clean again and the alert resolves, though the long one still burns
	// 26.7x.
	c := burnTicks(20, 5, 10, 20)
	checkLog(t, c, "6s firing slo-burn-rate(s)", "11s resolved slo-burn-rate(s)")
	a := c.Alerts()[0]
	if want := 20.0 / 60 / 0.01; math.Abs(a.Value-want) > 1e-9 {
		t.Errorf("burn value %v, want %v", a.Value, want)
	}
	if want := "burn 33.3x budget over 1s, 6.7x over 5s (target 99.00%)"; a.Detail != want {
		t.Errorf("detail %q, want %q", a.Detail, want)
	}
}

func TestBurnRateHonorsMinSent(t *testing.T) {
	// Every request bad, but the long window must hold 20 finished ones:
	// 3 a second is 15 in 5s, 4 a second is 20.
	for _, tc := range []struct {
		rate float64
		want []string
	}{
		{3, nil},
		{4, []string{"5s firing slo-burn-rate(s)"}},
	} {
		var b float64
		c := ticks(8, func(r *Registry, i int) {
			if i > 0 {
				b += tc.rate
			}
			r.Counter("session_good_total", "session", "s").Set(0)
			r.Counter("session_bad_total", "session", "s").Set(b)
		})
		t.Run(fmt.Sprint(tc.rate), func(t *testing.T) { checkLog(t, c, tc.want...) })
	}
}

func TestBurnRateNeedsBothWindows(t *testing.T) {
	// One second at 5 bad of 60: the short window burns 8.3x, the long one
	// only 1.7x. (A long window burning alone resolves the alert, in
	// TestBurnRateFiresAndResolves.)
	checkLog(t, burnTicks(20, 5, 6, 5))
}

func TestQueueSaturation(t *testing.T) {
	depths := []float64{10, 300, 20, 256, 300, 0}
	c := ticks(len(depths)-1, func(r *Registry, i int) {
		r.Gauge("backend_queue_depth", "backend", "be0").Set(depths[i])
	})
	// A single saturated sample (1s) must not fire; two in a row (3s, at
	// the limit, and 4s) fire at 4s; the drain at 5s resolves.
	checkLog(t, c, "4s firing queue-saturation(be0)", "5s resolved queue-saturation(be0)")
	if a := c.Alerts()[0]; a.Value != 300 || a.Detail != "queue depth 300 >= 256 for 2 samples" {
		t.Errorf("firing alert: %+v", a)
	}
}

// execTicks drives one tick per entry of means: in tick i, GPU g runs
// batches[g] batches of means[i][g] milliseconds each.
func execTicks(batches []int, means [][]float64) *Collector {
	return ticks(len(means)-1, func(r *Registry, i int) {
		for g, ms := range means[i] {
			w := r.Window("backend_exec_ms", "backend", fmt.Sprintf("be%d", g))
			for k := 0; k < batches[g]; k++ {
				w.Observe(time.Duration(ms * float64(time.Millisecond)))
			}
		}
	})
}

func TestStraggler(t *testing.T) {
	// Uniform fleet (zero variance is skipped, not divided by), then be3
	// at 30ms against 10ms peers: z = (30-15)/8.66 ≈ 1.73 at 2x the fleet
	// mean; back to uniform resolves.
	c := execTicks([]int{10, 10, 10, 10}, [][]float64{
		{10, 10, 10, 10}, {10, 10, 10, 30}, {10, 10, 10, 10},
	})
	checkLog(t, c, "1s firing gpu-straggler(be3)", "2s resolved gpu-straggler(be3)")
	if want := "exec mean 30.00ms vs fleet 15.00ms (z=1.73 over 4 GPUs)"; c.Alerts()[0].Detail != want {
		t.Errorf("detail %q, want %q", c.Alerts()[0].Detail, want)
	}
}

func TestStragglerPeerFloor(t *testing.T) {
	// One GPU among n reaches at most z = √(n−1): 1.41 with three peers,
	// below the 1.5 threshold however slow it runs, and 1.73 with four.
	for _, slow := range []float64{30, 100, 1000} {
		three := execTicks([]int{10, 10, 10}, [][]float64{{10, 10, slow}})
		checkLog(t, three)
		four := execTicks([]int{10, 10, 10, 10}, [][]float64{{10, 10, 10, slow}})
		checkLog(t, four, "0s firing gpu-straggler(be3)")
	}
}

func TestStragglerIgnoresIdleGPUs(t *testing.T) {
	// be4 ran one batch, below the 3 a GPU needs to be compared; counted,
	// it would be an outlier at z = 2.
	c := execTicks([]int{10, 10, 10, 10, 1}, [][]float64{{10, 10, 10, 10, 500}})
	checkLog(t, c)
	// Idle GPUs also do not make up the peer count.
	c = execTicks([]int{10, 10, 10, 1}, [][]float64{{10, 10, 30, 10}})
	checkLog(t, c)
}

func TestBackendFlap(t *testing.T) {
	// Flips at 1s, 2s and 3s fire at 3s. At 11s the window [1s, 11s] still
	// holds all three against the 0s baseline; at 12s the baseline is the
	// 1s sample and only two remain.
	c := ticks(12, func(r *Registry, i int) {
		up := 1.0
		if i == 1 || i >= 3 {
			up = 0
		}
		r.Gauge("backend_up", "backend", "be1").Set(up)
	})
	checkLog(t, c, "3s firing backend-flap(be1)", "12s resolved backend-flap(be1)")
	if a := c.Alerts()[0]; a.Value != 3 || a.Detail != "3 up/down transitions in 10s" {
		t.Errorf("flap alert: %+v", a)
	}
}

func TestDefaultRules(t *testing.T) {
	var names []string
	for _, r := range rules {
		names = append(names, r.name)
	}
	want := []string{"slo-burn-rate", "queue-saturation", "gpu-straggler", "backend-flap"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("rules %v, want %v in evaluation order", names, want)
	}
}

// TestRulesReadOnlyTheirWindow checks that each rule's verdict on the whole
// stream equals its verdict on the stream's tail from the newest snapshot
// before its window on, every tick of a long run that trips every rule: a
// tick costs the same however long the run.
func TestRulesReadOnlyTheirWindow(t *testing.T) {
	from := func(snaps []Snapshot, in func(at time.Duration) bool) []Snapshot {
		i := len(snaps) - 1
		for i > 0 && in(snaps[i-1].At) {
			i--
		}
		if i > 0 {
			i--
		}
		return snaps[i:]
	}
	last := func(n int) func([]Snapshot) []Snapshot {
		return func(snaps []Snapshot) []Snapshot { return snaps[max(len(snaps)-n, 0):] }
	}
	tails := map[string]func([]Snapshot) []Snapshot{
		"slo-burn-rate": func(snaps []Snapshot) []Snapshot {
			now := snaps[len(snaps)-1].At
			return from(snaps, func(at time.Duration) bool { return at > now-burnLong })
		},
		"queue-saturation": last(queueSamples),
		"gpu-straggler":    last(1),
		"backend-flap": func(snaps []Snapshot) []Snapshot {
			now := snaps[len(snaps)-1].At
			return from(snaps, func(at time.Duration) bool { return at >= now-flapWindow })
		},
	}
	c := NewCollector(Config{})
	r := c.Registry()
	var good, bad float64
	for i := 0; i < 240; i++ {
		phase := i / 20 % 4 // 10 s phases at 2 ticks per second
		good += 60
		if phase == 1 {
			bad += 30
		}
		r.Counter("session_good_total", "session", "s").Set(good)
		r.Counter("session_bad_total", "session", "s").Set(bad)
		depth := 10.0
		if phase == 2 && i%5 != 0 {
			depth = 300
		}
		r.Gauge("backend_queue_depth", "backend", "be0").Set(depth)
		up := 1.0
		if phase == 3 && i%3 == 0 {
			up = 0
		}
		r.Gauge("backend_up", "backend", "be0").Set(up)
		for g := 0; g < 4; g++ {
			ms := 10.0
			if g == 3 && phase == 3 {
				ms = 40
			}
			w := r.Window("backend_exec_ms", "backend", fmt.Sprintf("be%d", g))
			for k := 0; k < 4; k++ {
				w.Observe(time.Duration(ms * float64(time.Millisecond)))
			}
		}
		c.Tick(time.Duration(i) * 500 * time.Millisecond)
		for _, rule := range rules {
			full, tail := rule.check(c.snaps), rule.check(tails[rule.name](c.snaps))
			if !reflect.DeepEqual(full, tail) {
				t.Fatalf("tick %d: %s reads beyond its window: %+v on the stream, %+v on its tail", i, rule.name, full, tail)
			}
		}
	}
	fired := map[string]bool{}
	for _, a := range c.Alerts() {
		fired[a.Rule] = true
	}
	if len(fired) != len(rules) {
		t.Errorf("the run must trip every rule; fired %v", fired)
	}
}

// TestAlertTargetsKeepTheirLabels runs the burn-rate rule on sessions whose
// IDs need escaping in a key: each must alert under its own ID.
func TestAlertTargetsKeepTheirLabels(t *testing.T) {
	ids := []string{"a,b", `q"x`, `back\slash`, "new\nline"}
	var g, b float64
	c := ticks(8, func(r *Registry, i int) {
		if i > 0 {
			g, b = g+40, b+20
		}
		for _, id := range ids {
			r.Counter("session_good_total", "session", id).Set(g)
			r.Counter("session_bad_total", "session", id).Set(b)
		}
	})
	var got []string
	for _, a := range c.Alerts() {
		got = append(got, a.Target)
	}
	want := []string{"a,b", `back\slash`, "new\nline", `q"x`}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("burn-rate targets %q, want %q", got, want)
	}
}
