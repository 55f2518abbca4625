package faults

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nexus/internal/simclock"
)

// fakeTarget records every injector call so tests can assert exact timing
// and ordering without standing up a cluster.
type fakeTarget struct {
	clock     *simclock.Clock
	ids       []string
	dead      map[string]bool
	slow      map[string]float64
	net       time.Duration
	schedDown bool
	cut       map[string]bool // "link/backend" -> severed
	rate      map[string]float64
	calls     []string
}

func newFakeTarget(clock *simclock.Clock, ids ...string) *fakeTarget {
	return &fakeTarget{
		clock: clock,
		ids:   ids,
		dead:  make(map[string]bool),
		slow:  make(map[string]float64),
		cut:   make(map[string]bool),
		rate:  make(map[string]float64),
	}
}

func (t *fakeTarget) record(format string, args ...interface{}) {
	t.calls = append(t.calls, fmt.Sprintf("%v "+format, append([]interface{}{t.clock.Now()}, args...)...))
}

func (t *fakeTarget) BackendIDs() []string { return append([]string(nil), t.ids...) }

func (t *fakeTarget) CrashBackend(id string) bool {
	ok := false
	for _, known := range t.ids {
		if known == id {
			ok = true
		}
	}
	if !ok || t.dead[id] {
		t.record("crash %s refused", id)
		return false
	}
	t.dead[id] = true
	t.record("crash %s", id)
	return true
}

func (t *fakeTarget) RestartBackend(id string) bool {
	if !t.dead[id] {
		t.record("restart %s refused", id)
		return false
	}
	t.dead[id] = false
	t.record("restart %s", id)
	return true
}

func (t *fakeTarget) SlowBackend(id string, factor float64) bool {
	t.slow[id] = factor
	t.record("slow %s %.1f", id, factor)
	return true
}

func (t *fakeTarget) SetExtraNetDelay(d time.Duration) {
	t.net = d
	t.record("netdelay %v", d)
}

func (t *fakeTarget) SetSchedulerOutage(down bool) bool {
	if t.schedDown == down {
		t.record("schedoutage %v refused", down)
		return false
	}
	t.schedDown = down
	t.record("schedoutage %v", down)
	return true
}

func (t *fakeTarget) CutLink(link Link, backendID string, cut bool) bool {
	key := link.String() + "/" + backendID
	if t.cut[key] == cut {
		t.record("cutlink %s %v refused", key, cut)
		return false
	}
	t.cut[key] = cut
	t.record("cutlink %s %v", key, cut)
	return true
}

func (t *fakeTarget) SetRateMultiplier(session string, factor float64) bool {
	t.rate[session] = factor
	t.record("surge %q %.1f", session, factor)
	return true
}

func TestScriptValidate(t *testing.T) {
	cases := []struct {
		name   string
		script Script
		ok     bool
	}{
		{"empty", Script{}, true},
		{"crash", Script{{At: time.Second, Kind: Crash, Backend: "a"}}, true},
		{"transient crash", Script{{At: time.Second, Kind: Crash, Duration: time.Second}}, true},
		{"straggler", Script{{At: time.Second, Kind: Straggler, Factor: 4}}, true},
		{"netdelay", Script{{At: time.Second, Kind: NetDelay, Delay: time.Millisecond}}, true},
		{"negative time", Script{{At: -time.Second, Kind: Crash}}, false},
		{"negative duration", Script{{At: 0, Kind: Crash, Duration: -1}}, false},
		{"straggler factor 1", Script{{Kind: Straggler, Factor: 1}}, false},
		{"straggler factor 0", Script{{Kind: Straggler}}, false},
		{"netdelay no delay", Script{{Kind: NetDelay}}, false},
		{"scheduler outage", Script{{At: time.Second, Kind: SchedulerOutage, Duration: time.Second}}, true},
		{"partition control", Script{{At: time.Second, Kind: Partition, Link: ControlLink}}, true},
		{"partition data", Script{{At: time.Second, Kind: Partition, Backend: "a", Link: DataLink}}, true},
		{"partition bad link", Script{{Kind: Partition, Link: Link(7)}}, false},
		{"surge", Script{{At: time.Second, Kind: Surge, Session: "s", Factor: 3}}, true},
		{"surge no factor", Script{{Kind: Surge, Session: "s"}}, false},
		{"unknown kind", Script{{Kind: Kind(99)}}, false},
	}
	for _, c := range cases {
		err := c.script.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid script accepted", c.name)
		}
	}
}

func TestScheduleRejectsInvalidScript(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a")
	in := New(clock, tgt, 1)
	if err := in.Schedule(Script{{Kind: Straggler, Factor: 0.5}}); err == nil {
		t.Fatal("invalid script scheduled")
	}
	clock.Run()
	if len(tgt.calls) != 0 {
		t.Fatalf("calls fired from rejected script: %v", tgt.calls)
	}
}

func TestTransientCrashRestarts(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a", "b")
	in := New(clock, tgt, 1)
	err := in.Schedule(Script{
		{At: 2 * time.Second, Kind: Crash, Backend: "b", Duration: 3 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Run()
	want := []string{"2s crash b", "5s restart b"}
	if !reflect.DeepEqual(tgt.calls, want) {
		t.Fatalf("calls = %v, want %v", tgt.calls, want)
	}
	log := in.Log()
	if len(log) != 1 || log[0].At != 2*time.Second || log[0].Kind != Crash ||
		log[0].Backend != "b" || !log[0].Applied {
		t.Fatalf("log = %+v", log)
	}
}

func TestCrashUnknownBackendNotApplied(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a")
	in := New(clock, tgt, 1)
	err := in.Schedule(Script{
		{At: time.Second, Kind: Crash, Backend: "ghost", Duration: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Run()
	log := in.Log()
	if len(log) != 1 || log[0].Applied {
		t.Fatalf("log = %+v, want one unapplied injection", log)
	}
	// No restart must be scheduled for an unapplied crash.
	for _, c := range tgt.calls {
		if c == "2s restart ghost" {
			t.Fatal("restart scheduled for unapplied crash")
		}
	}
}

func TestStragglerWindowRestoresSpeed(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a")
	in := New(clock, tgt, 1)
	err := in.Schedule(Script{
		{At: time.Second, Kind: Straggler, Backend: "a", Factor: 4, Duration: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(2 * time.Second)
	if tgt.slow["a"] != 4 {
		t.Fatalf("slowdown during window = %v, want 4", tgt.slow["a"])
	}
	clock.Run()
	if tgt.slow["a"] != 1 {
		t.Fatalf("slowdown after window = %v, want 1", tgt.slow["a"])
	}
}

func TestOverlappingNetDelayWindows(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a")
	in := New(clock, tgt, 1)
	// Second spike starts inside the first and ends later: the first
	// window's expiry must not clear the still-active second spike.
	err := in.Schedule(Script{
		{At: 1 * time.Second, Kind: NetDelay, Delay: 5 * time.Millisecond, Duration: 4 * time.Second},
		{At: 2 * time.Second, Kind: NetDelay, Delay: 9 * time.Millisecond, Duration: 6 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(6 * time.Second) // past the first window's end (5s)
	if tgt.net != 9*time.Millisecond {
		t.Fatalf("net delay after first window expiry = %v, want 9ms", tgt.net)
	}
	clock.Run() // past the second window's end (8s)
	if tgt.net != 0 {
		t.Fatalf("net delay after all windows = %v, want 0", tgt.net)
	}
}

func TestRandomTargetSelectionIsSeeded(t *testing.T) {
	script := Script{
		{At: 1 * time.Second, Kind: Crash, Duration: time.Second},
		{At: 3 * time.Second, Kind: Crash, Duration: time.Second},
		{At: 5 * time.Second, Kind: Straggler, Factor: 2, Duration: time.Second},
	}
	run := func(seed int64) []Injection {
		clock := simclock.New()
		tgt := newFakeTarget(clock, "a", "b", "c", "d")
		in := New(clock, tgt, seed)
		if err := in.Schedule(script); err != nil {
			t.Fatal(err)
		}
		clock.Run()
		return in.Log()
	}
	first := run(7)
	if !reflect.DeepEqual(first, run(7)) {
		t.Fatal("same seed produced different injections")
	}
	distinct := false
	for seed := int64(0); seed < 16; seed++ {
		if !reflect.DeepEqual(first, run(seed)) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Fatal("16 seeds all picked identical targets; RNG not wired to selection")
	}
}

func TestRandomSelectionNoBackends(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock) // no backends
	in := New(clock, tgt, 1)
	if err := in.Schedule(Script{{At: time.Second, Kind: Crash}}); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	log := in.Log()
	if len(log) != 1 || log[0].Applied || log[0].Backend != "" {
		t.Fatalf("log = %+v, want one unapplied injection with no target", log)
	}
}

// Regression: a bounded spike's expiry used to clear a later permanent
// (Duration 0) spike, because netUntil only tracked bounded windows.
func TestBoundedThenPermanentNetDelay(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a")
	in := New(clock, tgt, 1)
	err := in.Schedule(Script{
		{At: 1 * time.Second, Kind: NetDelay, Delay: 5 * time.Millisecond, Duration: 3 * time.Second},
		{At: 2 * time.Second, Kind: NetDelay, Delay: 9 * time.Millisecond}, // permanent
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.Run() // the bounded window's expiry at 4s fires here
	if tgt.net != 9*time.Millisecond {
		t.Fatalf("permanent spike cleared by bounded window expiry: net = %v, want 9ms", tgt.net)
	}
	in.ClearNetDelay()
	if tgt.net != 0 {
		t.Fatalf("net delay after explicit clear = %v, want 0", tgt.net)
	}
}

// A cleared pin must not suppress the expiry of later bounded windows.
func TestClearNetDelayUnpins(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a")
	in := New(clock, tgt, 1)
	if err := in.Schedule(Script{
		{At: 1 * time.Second, Kind: NetDelay, Delay: 9 * time.Millisecond}, // permanent
	}); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(2 * time.Second)
	in.ClearNetDelay()
	if err := in.Schedule(Script{
		{At: 3 * time.Second, Kind: NetDelay, Delay: 4 * time.Millisecond, Duration: time.Second},
	}); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	if tgt.net != 0 {
		t.Fatalf("bounded window after unpin did not expire: net = %v, want 0", tgt.net)
	}
}

// An empty script records one unapplied Noop injection so chaos logs
// reconcile with scripts instead of silently being empty.
func TestEmptyScriptLogsNoop(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a")
	in := New(clock, tgt, 1)
	if err := in.Schedule(nil); err != nil {
		t.Fatal(err)
	}
	log := in.Log()
	if len(log) != 1 || log[0].Kind != Noop || log[0].Applied || log[0].Note != "empty script" {
		t.Fatalf("log = %+v, want one unapplied noop injection", log)
	}
	clock.Run()
	if len(tgt.calls) != 0 {
		t.Fatalf("empty script fired calls: %v", tgt.calls)
	}
}

// Unresolvable events carry an explanatory note in the log.
func TestUnresolvableEventNote(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock) // no backends
	in := New(clock, tgt, 1)
	if err := in.Schedule(Script{{At: time.Second, Kind: Crash}}); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	log := in.Log()
	if len(log) != 1 || log[0].Applied || log[0].Note != "no live backends" {
		t.Fatalf("log = %+v, want unapplied injection with note", log)
	}
}

func TestSchedulerOutageWindow(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a")
	in := New(clock, tgt, 1)
	err := in.Schedule(Script{
		{At: 2 * time.Second, Kind: SchedulerOutage, Duration: 3 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(3 * time.Second)
	if !tgt.schedDown {
		t.Fatal("scheduler not down during outage window")
	}
	clock.Run()
	if tgt.schedDown {
		t.Fatal("scheduler still down after outage window")
	}
	log := in.Log()
	if len(log) != 1 || !log[0].Applied || log[0].Kind != SchedulerOutage {
		t.Fatalf("log = %+v", log)
	}
}

func TestPartitionCutsAndHeals(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a", "b")
	in := New(clock, tgt, 1)
	err := in.Schedule(Script{
		{At: 1 * time.Second, Kind: Partition, Backend: "b", Link: ControlLink, Duration: 2 * time.Second},
		{At: 1 * time.Second, Kind: Partition, Backend: "b", Link: DataLink}, // permanent
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(2 * time.Second)
	if !tgt.cut["control/b"] || !tgt.cut["data/b"] {
		t.Fatalf("links not cut: %v", tgt.cut)
	}
	clock.Run()
	if tgt.cut["control/b"] {
		t.Fatal("control link not healed after bounded partition")
	}
	if !tgt.cut["data/b"] {
		t.Fatal("permanent data partition healed itself")
	}
}

func TestSurgeWindowRestoresRate(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a")
	in := New(clock, tgt, 1)
	err := in.Schedule(Script{
		{At: 1 * time.Second, Kind: Surge, Session: "lo", Factor: 3, Duration: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(2 * time.Second)
	if tgt.rate["lo"] != 3 {
		t.Fatalf("surge multiplier during window = %v, want 3", tgt.rate["lo"])
	}
	clock.Run()
	if tgt.rate["lo"] != 1 {
		t.Fatalf("surge multiplier after window = %v, want 1", tgt.rate["lo"])
	}
}

func TestLogReturnsCopy(t *testing.T) {
	clock := simclock.New()
	tgt := newFakeTarget(clock, "a")
	in := New(clock, tgt, 1)
	if err := in.Schedule(Script{{At: time.Second, Kind: Crash, Backend: "a"}}); err != nil {
		t.Fatal(err)
	}
	clock.Run()
	log := in.Log()
	log[0].Backend = "mutated"
	if in.Log()[0].Backend != "a" {
		t.Fatal("Log exposed internal slice")
	}
}
