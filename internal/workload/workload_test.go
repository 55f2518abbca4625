package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nexus/internal/simclock"
)

func TestUniformMeanRate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := Uniform{Rate: 100}
	var sum time.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		d := p.Interarrival(0, rng)
		if d < 5*time.Millisecond || d > 15*time.Millisecond {
			t.Fatalf("uniform interarrival %v outside [5ms,15ms]", d)
		}
		sum += d
	}
	mean := sum / n
	if math.Abs(float64(mean-10*time.Millisecond)) > float64(200*time.Microsecond) {
		t.Fatalf("mean interarrival %v, want ~10ms", mean)
	}
}

func TestPoissonMeanRate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := Poisson{Rate: 200}
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += p.Interarrival(0, rng)
	}
	mean := sum / n
	if math.Abs(float64(mean-5*time.Millisecond)) > float64(150*time.Microsecond) {
		t.Fatalf("mean interarrival %v, want ~5ms", mean)
	}
}

func TestZeroRateDoesNotDivide(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if d := (Uniform{}).Interarrival(0, rng); d <= 0 {
		t.Fatal("zero-rate uniform returned non-positive gap")
	}
	if d := (Poisson{}).Interarrival(0, rng); d <= 0 {
		t.Fatal("zero-rate poisson returned non-positive gap")
	}
}

func TestModulatedFollowsSchedule(t *testing.T) {
	sched := Burst(100, 1000, 10*time.Second, 20*time.Second)
	m := Modulated{RateAt: sched.RateAt}
	rng := rand.New(rand.NewSource(4))
	meanAt := func(now time.Duration) time.Duration {
		var sum time.Duration
		const n = 5000
		for i := 0; i < n; i++ {
			sum += m.Interarrival(now, rng)
		}
		return sum / n
	}
	base := meanAt(time.Second)
	burst := meanAt(15 * time.Second)
	if base < 9*time.Millisecond || base > 11*time.Millisecond {
		t.Fatalf("base mean %v, want ~10ms", base)
	}
	if burst < 900*time.Microsecond || burst > 1100*time.Microsecond {
		t.Fatalf("burst mean %v, want ~1ms", burst)
	}
}

func TestModulatedZeroRateProbes(t *testing.T) {
	m := Modulated{RateAt: func(time.Duration) float64 { return 0 }}
	if d := m.Interarrival(0, rand.New(rand.NewSource(1))); d != time.Second {
		t.Fatalf("zero-rate probe gap = %v, want 1s", d)
	}
}

func TestGenerator(t *testing.T) {
	clock := simclock.New()
	rng := rand.New(rand.NewSource(7))
	var reqs []Request
	g := Start(clock, rng, "s1", 100*time.Millisecond, Uniform{Rate: 100},
		10*time.Second, func(r Request) { reqs = append(reqs, r) })
	g.Handle = 7
	clock.Run()
	// ~1000 requests in 10s at 100 r/s.
	if len(reqs) < 900 || len(reqs) > 1100 {
		t.Fatalf("generated %d requests, want ~1000", len(reqs))
	}
	if g.Sent() != uint64(len(reqs)) {
		t.Fatalf("Sent = %d, emitted %d", g.Sent(), len(reqs))
	}
	var prev time.Duration = -1
	for i, r := range reqs {
		if r.Arrival <= prev {
			t.Fatal("arrivals not strictly increasing")
		}
		if r.Arrival >= 10*time.Second {
			t.Fatal("arrival past until bound")
		}
		if r.Deadline != r.Arrival+100*time.Millisecond {
			t.Fatal("deadline != arrival + SLO")
		}
		if r.ID != uint64(i) {
			t.Fatal("IDs not sequential")
		}
		if r.Session != 7 || g.Session != "s1" {
			t.Fatal("wrong session")
		}
		prev = r.Arrival
	}
}

func TestGeneratorInvalidSLO(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive SLO accepted")
		}
	}()
	Start(simclock.New(), rand.New(rand.NewSource(1)), "s", 0, Uniform{Rate: 1}, time.Second, func(Request) {})
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(10, 0.9)
	if len(w) != 10 {
		t.Fatalf("len = %d", len(w))
	}
	var sum float64
	for i, x := range w {
		sum += x
		if i > 0 && x > w[i-1] {
			t.Fatal("weights not decreasing")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
	if ZipfWeights(0, 1) != nil {
		t.Fatal("n=0 should return nil")
	}
	// s=0 means uniform.
	u := ZipfWeights(4, 0)
	for _, x := range u {
		if math.Abs(x-0.25) > 1e-9 {
			t.Fatalf("s=0 weights not uniform: %v", u)
		}
	}
}

func TestSplitRate(t *testing.T) {
	rates := SplitRate(1000, 5, 0.9)
	var sum float64
	for _, r := range rates {
		sum += r
	}
	if math.Abs(sum-1000) > 1e-6 {
		t.Fatalf("split rates sum to %v", sum)
	}
	if rates[0] <= rates[4] {
		t.Fatal("Zipf head not larger than tail")
	}
}

func TestScheduleValidate(t *testing.T) {
	good := Schedule{{Until: time.Second, Rate: 1}, {Until: 2 * time.Second, Rate: 2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Schedule{{Until: 2 * time.Second, Rate: 1}, {Until: time.Second, Rate: 2}}
	if bad.Validate() == nil {
		t.Fatal("unordered schedule accepted")
	}
	neg := Schedule{{Until: time.Second, Rate: -1}}
	if neg.Validate() == nil {
		t.Fatal("negative rate accepted")
	}
}

func TestScheduleRateAt(t *testing.T) {
	s := Burst(100, 500, 10*time.Second, 20*time.Second)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 100},
		{9 * time.Second, 100},
		{10 * time.Second, 500},
		{19 * time.Second, 500},
		{20 * time.Second, 100},
		{time.Hour, 100},
	}
	for _, c := range cases {
		if got := s.RateAt(c.t); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	var empty Schedule
	if empty.RateAt(0) != 0 {
		t.Fatal("empty schedule rate should be 0")
	}
}

// Property: generator emits approximately rate*duration requests for both
// process kinds, and never past the horizon.
func TestPropertyGeneratorRate(t *testing.T) {
	f := func(seed int64, usePoisson bool) bool {
		rng := rand.New(rand.NewSource(seed))
		rate := float64(rng.Intn(400) + 50)
		var proc Process
		if usePoisson {
			proc = Poisson{Rate: rate}
		} else {
			proc = Uniform{Rate: rate}
		}
		clock := simclock.New()
		n := 0
		horizon := 5 * time.Second
		Start(clock, rng, "s", 50*time.Millisecond, proc, horizon, func(r Request) {
			if r.Arrival >= horizon {
				n = -1 << 30
			}
			n++
		})
		clock.Run()
		want := rate * horizon.Seconds()
		return math.Abs(float64(n)-want) < want*0.2+20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneratorStopsAtHorizonEdge(t *testing.T) {
	clock := simclock.New()
	rng := rand.New(rand.NewSource(9))
	var last time.Duration
	Start(clock, rng, "s", time.Second, Uniform{Rate: 1000}, 2*time.Second, func(r Request) {
		last = r.Arrival
	})
	clock.Run()
	if last >= 2*time.Second {
		t.Fatalf("arrival at %v, past the horizon", last)
	}
}

func TestModulatedRespondsToScheduleMidStream(t *testing.T) {
	clock := simclock.New()
	rng := rand.New(rand.NewSource(10))
	sched := Burst(50, 1000, 5*time.Second, 10*time.Second)
	perSecond := map[int]int{}
	Start(clock, rng, "s", time.Second, Modulated{RateAt: sched.RateAt}, 15*time.Second, func(r Request) {
		perSecond[int(r.Arrival/time.Second)]++
	})
	clock.Run()
	base := perSecond[2] + perSecond[3]
	burst := perSecond[6] + perSecond[7]
	if burst < 10*base {
		t.Fatalf("burst window %d arrivals vs base %d: modulation too weak", burst, base)
	}
}

func TestMinInterarrivalGuard(t *testing.T) {
	// A process returning zero gaps must not hang the generator.
	clock := simclock.New()
	rng := rand.New(rand.NewSource(11))
	n := 0
	Start(clock, rng, "s", time.Second, zeroGap{}, 10*time.Millisecond, func(Request) { n++ })
	clock.SetEventLimit(100000)
	clock.Run()
	if n == 0 {
		t.Fatal("no requests")
	}
	// 10ms at the 1µs floor = at most ~10k arrivals.
	if n > 10001 {
		t.Fatalf("gap floor not applied: %d arrivals", n)
	}
}

type zeroGap struct{}

func (zeroGap) Interarrival(time.Duration, *rand.Rand) time.Duration { return 0 }
