package simclock

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// The timer wheel must be observationally identical to the binary heap it
// replaced: events fire in exact (timestamp, schedule-order) sequence. The
// tests in this file check that contract against a mirror model — every
// scheduled event is also recorded in a plain slice, and the expected fire
// order is the mirror sorted by (at, seq), which is trivially correct.

type mirrorEvent struct {
	id        int
	at        time.Duration
	seq       int
	cancelled bool
	timer     Timer
}

type mirror struct {
	clock  *Clock
	events []*mirrorEvent
	fired  []int
	nextID int
	nextSq int
}

// schedule registers fn-less bookkeeping alongside a real clock.At call.
// The mirror's seq counter advances in lockstep with the clock's because
// every At in the test goes through here.
func (m *mirror) schedule(at time.Duration) *mirrorEvent {
	ev := &mirrorEvent{id: m.nextID, at: at, seq: m.nextSq}
	m.nextID++
	m.nextSq++
	ev.timer = m.clock.At(at, func() {
		m.fired = append(m.fired, ev.id)
	})
	m.events = append(m.events, ev)
	return ev
}

// expected returns the IDs of uncancelled events in (at, seq) order.
func (m *mirror) expected() []int {
	live := make([]*mirrorEvent, 0, len(m.events))
	for _, ev := range m.events {
		if !ev.cancelled {
			live = append(live, ev)
		}
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].at != live[j].at {
			return live[i].at < live[j].at
		}
		return live[i].seq < live[j].seq
	})
	ids := make([]int, len(live))
	for i, ev := range live {
		ids[i] = ev.id
	}
	return ids
}

func checkOrder(t *testing.T, seed int64, m *mirror) {
	t.Helper()
	want := m.expected()
	if len(m.fired) != len(want) {
		t.Fatalf("seed %d: fired %d events, want %d", seed, len(m.fired), len(want))
	}
	for i := range want {
		if m.fired[i] != want[i] {
			t.Fatalf("seed %d: fire order diverges at %d: got id %d, want %d",
				seed, i, m.fired[i], want[i])
		}
	}
}

// randomOffset spans every wheel tier: sub-bucket (same-tick collisions),
// level 0, level 1, and the far overflow including multi-hour gaps.
func randomOffset(rng *rand.Rand) time.Duration {
	switch rng.Intn(6) {
	case 0:
		return time.Duration(rng.Intn(3)) // sub-granule, often identical ticks
	case 1:
		return time.Duration(rng.Intn(1 << granuleBits)) // same level-0 bucket span
	case 2:
		return time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
	case 3:
		return time.Duration(rng.Int63n(int64(3 * time.Second)))
	case 4:
		return time.Duration(rng.Int63n(int64(2 * time.Minute)))
	default:
		return time.Duration(rng.Int63n(int64(5 * time.Hour)))
	}
}

// TestWheelMatchesHeapOrder schedules randomized batches across all wheel
// tiers, cancels a random subset before running, and requires the fire
// order to equal the sorted mirror.
func TestWheelMatchesHeapOrder(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		m := &mirror{clock: c}
		for i := 0; i < 300; i++ {
			m.schedule(randomOffset(rng))
		}
		// Stop a random subset; Stop's report must agree with the mirror.
		for _, ev := range m.events {
			if rng.Intn(4) == 0 {
				if !ev.timer.Stop() {
					t.Fatalf("seed %d: Stop on pending event %d reported false", seed, ev.id)
				}
				ev.cancelled = true
				if ev.timer.Stop() {
					t.Fatalf("seed %d: double Stop on event %d reported true", seed, ev.id)
				}
			}
		}
		c.Run()
		checkOrder(t, seed, m)
		if c.Pending() != 0 {
			t.Fatalf("seed %d: %d events pending after Run", seed, c.Pending())
		}
	}
}

// TestWheelReentrantScheduling mixes callbacks that schedule more events —
// including at the current instant and far in the future — with callbacks
// that stop not-yet-fired timers, the races the dispatch loop produces
// (batch completions cancelling duty-cycle ticks and vice versa).
func TestWheelReentrantScheduling(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		c := New()
		m := &mirror{clock: c}
		var scheduleReactive func(ev *mirrorEvent)
		scheduleReactive = func(ev *mirrorEvent) {
			// Wrap the mirror callback: on fire, maybe spawn or stop.
			ev.timer.Stop()                 // detach the plain recorder…
			ev.timer = c.At(ev.at, func() { // …and rebind with reactions
				m.fired = append(m.fired, ev.id)
				if len(m.events) < 600 && rng.Intn(3) == 0 {
					child := m.schedule(c.Now() + randomOffset(rng))
					if rng.Intn(2) == 0 {
						scheduleReactive(child)
					}
				}
				if rng.Intn(4) == 0 {
					// Stop a random still-pending event.
					victim := m.events[rng.Intn(len(m.events))]
					if victim.timer.Stop() {
						victim.cancelled = true
					}
				}
			})
			ev.seq = m.nextSq // rebinding consumed a fresh clock seq
			m.nextSq++
		}
		for i := 0; i < 100; i++ {
			ev := m.schedule(randomOffset(rng))
			if rng.Intn(2) == 0 {
				scheduleReactive(ev)
			}
		}
		c.Run()
		// Reactive stops may race with fires in ways the mirror resolves
		// identically: a victim picked after it fired reports Stop()==false
		// and stays in the fired log. Expected order is still sort order.
		checkOrder(t, seed, m)
	}
}

// TestWheelRunUntilBoundaries pins RunUntil against the mirror at random
// cut points: exactly the events with at <= t fire, in order, and Now
// lands exactly on t.
func TestWheelRunUntilBoundaries(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		c := New()
		m := &mirror{clock: c}
		for i := 0; i < 200; i++ {
			m.schedule(randomOffset(rng))
		}
		cut := time.Duration(rng.Int63n(int64(time.Hour)))
		c.RunUntil(cut)
		if c.Now() != cut {
			t.Fatalf("seed %d: Now = %v after RunUntil(%v)", seed, c.Now(), cut)
		}
		want := 0
		for _, id := range m.expected() {
			if m.events[id].at <= cut {
				if want >= len(m.fired) || m.fired[want] != id {
					t.Fatalf("seed %d: event %d (at %v) missing or out of order at cut %v",
						seed, id, m.events[id].at, cut)
				}
				want++
			}
		}
		if len(m.fired) != want {
			t.Fatalf("seed %d: fired %d events, want %d before cut %v", seed, len(m.fired), want, cut)
		}
		c.Run()
		checkOrder(t, seed, m)
	}
}

// TestWheelCursorJumpThenNearInsert pins the sparse-schedule fast path: a
// peek (via RunUntil) may park the cursor next to a far-future event, and
// an insert between now and the cursor must still fire first.
func TestWheelCursorJumpThenNearInsert(t *testing.T) {
	c := New()
	var order []string
	c.At(3*time.Hour, func() { order = append(order, "far") })
	// RunUntil peeks, which is allowed to advance the cursor toward the
	// 3h event even though virtual time stays at 1s.
	c.RunUntil(time.Second)
	c.At(2*time.Second, func() { order = append(order, "near") })
	c.At(time.Second, func() { order = append(order, "now") })
	c.Run()
	if len(order) != 3 || order[0] != "now" || order[1] != "near" || order[2] != "far" {
		t.Fatalf("fire order = %v, want [now near far]", order)
	}
}
