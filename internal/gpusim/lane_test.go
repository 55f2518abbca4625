package gpusim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"nexus/internal/profiler"
	"nexus/internal/simclock"
)

// engine is what runLanes needs from a device; the lane
// engine and the oracle each satisfy it through a thin adapter.
type engine interface {
	Submit(time.Duration, func())
	SetSlowdown(float64)
	BusyTime() time.Duration
	partition(id string, frac float64) (slice, error)
}

type slice interface {
	Submit(time.Duration, func())
	Release()
	Released() bool
	BusyTime() time.Duration
}

type laneEngine struct{ *Device }

func (e laneEngine) partition(id string, frac float64) (slice, error) {
	p, err := e.Partition(id, frac)
	if err != nil {
		return nil, err
	}
	return p, nil
}

type oracleEngine struct{ *oracleDevice }

func (e oracleEngine) partition(id string, frac float64) (slice, error) {
	p, err := e.Partition(id, frac)
	if err != nil {
		return nil, err
	}
	return p, nil
}

var (
	scriptFracs     = []float64{0.25, 0.5, 0.125, 1, 0.3, 0.75, 0.1}
	scriptSlowdowns = []float64{0, 1, 1.5, 2, 3.7}
)

// runLanes decodes data into a script of timed operations — whole-device
// and partition submits, partition creation and release, slowdowns and
// busy-time probes — runs it on the engine mk builds, and returns the log
// of everything observable: each completion with its time, every probe,
// and the final busy times and release states. A completion callback may
// resubmit, to its own target or to the whole device, and may release its
// partition. Times fall on a coarse grid so that events often tie.
func runLanes(data []byte, mk func(*simclock.Clock, Mode) engine) []string {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	workOf := func(b int) time.Duration {
		if b < 160 {
			return time.Duration(b%20+1) * 250 * time.Microsecond
		}
		return time.Duration(b*12347 + 1)
	}
	mode := Mode(next() & 1)
	clock := simclock.New()
	clock.SetEventLimit(1 << 20)
	dev := mk(clock, mode)
	var (
		log   []string
		slots [4]slice
		jobs  int
		parts int
	)
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%d "+format, append([]any{clock.Now()}, args...)...))
	}
	// submit runs a job on slot (-1 for the whole device). chain more jobs
	// follow it from its callback: on the whole device if flags has 4, after
	// a delay if it has 16, chased by a probe if it has 32. With 8, the
	// callback releases the job's slot.
	var submit func(slot int, work time.Duration, chain, flags int)
	submit = func(slot int, work time.Duration, chain, flags int) {
		id := jobs
		jobs++
		var p slice
		if slot >= 0 {
			if p = slots[slot]; p == nil || p.Released() {
				logf("skip job %d", id)
				return
			}
		}
		done := func() {
			logf("done job %d", id)
			if flags&8 != 0 && p != nil {
				p.Release()
			}
			if chain == 0 {
				return
			}
			to := slot
			if flags&4 != 0 {
				to = -1
			}
			if flags&16 == 0 {
				submit(to, work, chain-1, flags)
				// A probe armed after the follow-up, for the instant it
				// would finish if it ran alone at full speed.
				if flags&32 != 0 {
					clock.After(work, func() { logf("probe %d", dev.BusyTime()) })
				}
				return
			}
			clock.After(time.Duration(flags%4)*250*time.Microsecond, func() { submit(to, work, chain-1, flags) })
		}
		if p != nil {
			p.Submit(work, done)
		} else {
			dev.Submit(work, done)
		}
	}
	type op struct {
		at time.Duration
		fn func()
	}
	var ops []op
	var at time.Duration
	for len(data) > 0 {
		kind := next() % 8
		at += time.Duration(next()%8) * 500 * time.Microsecond
		a, b, f := next(), next(), next()
		var fn func()
		switch kind {
		case 0, 1:
			fn = func() { submit(-1, workOf(a), f%3, f&^8) }
		case 2, 3:
			fn = func() { submit(b%4, workOf(a), f%3, f) }
		case 4:
			fn = func() {
				parts++
				p, err := dev.partition(fmt.Sprintf("p%d", parts), scriptFracs[a%len(scriptFracs)])
				logf("partition %d: %v", parts, err == nil)
				if err == nil {
					slots[b%4] = p
				}
			}
		case 5:
			fn = func() {
				if p := slots[b%4]; p != nil {
					p.Release()
				}
			}
		case 6:
			fn = func() { dev.SetSlowdown(scriptSlowdowns[a%len(scriptSlowdowns)]) }
		case 7:
			fn = func() { logf("busy %d", dev.BusyTime()) }
		}
		ops = append(ops, op{at, fn})
	}
	// Each operation arms the next one before it runs, so the script's
	// events interleave with the engine's timers in the clock's same-instant
	// order, which is the order they were armed in.
	var pump func(i int) func()
	pump = func(i int) func() {
		return func() {
			if i+1 < len(ops) {
				clock.At(ops[i+1].at, pump(i+1))
			}
			ops[i].fn()
		}
	}
	if len(ops) > 0 {
		clock.At(ops[0].at, pump(0))
	}
	clock.Run()
	logf("busy %d", dev.BusyTime())
	for i, p := range slots {
		if p != nil {
			logf("slot %d busy %d released %v", i, p.BusyTime(), p.Released())
		}
	}
	return log
}

func newLaneEngine(c *simclock.Clock, m Mode) engine {
	return laneEngine{New(c, "g", profiler.GTX1080Ti, m)}
}

func newOracleEngine(c *simclock.Clock, m Mode) engine {
	return oracleEngine{newOracle(c, m)}
}

func checkLanesMatchOracle(t *testing.T, data []byte) {
	t.Helper()
	got := runLanes(data, newLaneEngine)
	want := runLanes(data, newOracleEngine)
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Fatalf("script %x: log line %d is %q, oracle has %q", data, i, g, w)
		}
	}
}

// TestLanesMatchOracle drives the lane engine and the three-engine oracle
// with the same seeded random scripts, in both modes, with partitions
// beside whole-device work, and requires identical logs.
func TestLanesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		data := make([]byte, 8+rng.Intn(240))
		rng.Read(data)
		checkLanesMatchOracle(t, data)
	}
}

// FuzzLanes is TestLanesMatchOracle over fuzzed scripts, seeded by the
// committed corpus under testdata/fuzz.
func FuzzLanes(f *testing.F) {
	f.Fuzz(checkLanesMatchOracle)
}

// TestLaneQueueStaysBounded keeps a fixed backlog on an Exclusive device's
// lane and on a partition's lane — each completion submits one more job —
// and checks that jobs complete in FIFO order and that neither queue grows
// past twice the backlog, however many jobs pass through.
func TestLaneQueueStaysBounded(t *testing.T) {
	for _, tc := range []struct {
		name           string
		backlog, total int
	}{
		{"one-queued", 2, 100000},
		{"deep-drain", 400, 400},
	} {
		for _, slices := range []bool{false, true} {
			c, d := newDev(Exclusive)
			submit, l := d.Submit, d.whole.lanes[0]
			if slices {
				p, err := d.Partition("p", 0.5)
				if err != nil {
					t.Fatal(err)
				}
				submit, l = p.Submit, &p.lane
			}
			var got []int
			sent := 0
			var send func()
			send = func() {
				i := sent
				sent++
				submit(time.Millisecond, func() {
					got = append(got, i)
					if sent < tc.total {
						send()
					}
				})
			}
			for sent < tc.backlog {
				send()
			}
			c.Run()
			if len(got) != tc.total {
				t.Fatalf("%s slices=%v: completed %d, want %d", tc.name, slices, len(got), tc.total)
			}
			for i, v := range got {
				if v != i {
					t.Fatalf("%s slices=%v: completion %d was job %d", tc.name, slices, i, v)
				}
			}
			if cap(l.q) > 2*tc.backlog {
				t.Fatalf("%s slices=%v: queue capacity %d for a backlog of %d", tc.name, slices, cap(l.q), tc.backlog)
			}
			if d.QueueLen() != 0 {
				t.Fatalf("%s slices=%v: QueueLen = %d after drain", tc.name, slices, d.QueueLen())
			}
		}
	}
}
