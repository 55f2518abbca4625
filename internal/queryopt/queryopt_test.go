package queryopt

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/scheduler"
)

func linearProfile(id string, alpha, beta time.Duration) *profiler.Profile {
	return &profiler.Profile{
		ModelID: id, GPU: profiler.GTX1080Ti,
		Alpha: alpha, Beta: beta, MaxBatch: 64,
		MemBase: 1 << 30, MemPerItem: 4 << 20,
	}
}

func chainQuery(slo time.Duration) *Query {
	return &Query{
		Name: "q",
		SLO:  slo,
		Root: &Node{Name: "x", ModelID: "mx", Edges: []Edge{
			{Gamma: 1, Child: &Node{Name: "y", ModelID: "my"}},
		}},
	}
}

func TestValidate(t *testing.T) {
	good := chainQuery(100 * time.Millisecond)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Query{Name: "q", SLO: time.Second}
	if bad.Validate() == nil {
		t.Error("nil root accepted")
	}
	noSLO := chainQuery(0)
	if noSLO.Validate() == nil {
		t.Error("zero SLO accepted")
	}
	dup := &Query{Name: "q", SLO: time.Second, Root: &Node{Name: "x", ModelID: "m", Edges: []Edge{
		{Gamma: 1, Child: &Node{Name: "x", ModelID: "m"}},
	}}}
	if dup.Validate() == nil {
		t.Error("duplicate names accepted")
	}
	badGamma := &Query{Name: "q", SLO: time.Second, Root: &Node{Name: "x", ModelID: "m", Edges: []Edge{
		{Gamma: 0, Child: &Node{Name: "y", ModelID: "m"}},
	}}}
	if badGamma.Validate() == nil {
		t.Error("zero gamma accepted")
	}
}

func TestRates(t *testing.T) {
	q := &Query{Name: "traffic", SLO: 400 * time.Millisecond,
		Root: &Node{Name: "ssd", ModelID: "ssd", Edges: []Edge{
			{Gamma: 2.5, Child: &Node{Name: "car", ModelID: "car"}},
			{Gamma: 0.5, Child: &Node{Name: "face", ModelID: "face"}},
		}}}
	rates := q.Rates(100)
	if rates["ssd"] != 100 || rates["car"] != 250 || rates["face"] != 50 {
		t.Fatalf("rates = %v", rates)
	}
}

func TestOptimizeChain(t *testing.T) {
	profiles := map[string]*profiler.Profile{
		"mx": linearProfile("mx", 2*time.Millisecond, 10*time.Millisecond),
		"my": linearProfile("my", 500*time.Microsecond, 5*time.Millisecond),
	}
	q := chainQuery(200 * time.Millisecond)
	split, err := Optimize(q, 100, profiles, 5*time.Millisecond, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	bx, by := split.Budgets["x"], split.Budgets["y"]
	if bx+by > 200*time.Millisecond {
		t.Fatalf("split %v + %v exceeds SLO", bx, by)
	}
	if bx <= 0 || by <= 0 {
		t.Fatalf("non-positive budgets: %v, %v", bx, by)
	}
	// The slower model (mx) should get the larger share.
	if bx <= by {
		t.Errorf("slow stage got %v, fast stage %v; expected more for slow", bx, by)
	}
	if split.GPUs <= 0 || math.IsInf(split.GPUs, 1) {
		t.Fatalf("GPUs = %v", split.GPUs)
	}
}

// TestOptimizeMatchesBruteForce compares the DP against exhaustive split
// enumeration on a two-stage chain.
func TestOptimizeMatchesBruteForce(t *testing.T) {
	profiles := map[string]*profiler.Profile{
		"mx": linearProfile("mx", 2*time.Millisecond, 12*time.Millisecond),
		"my": linearProfile("my", time.Millisecond, 8*time.Millisecond),
	}
	const rate = 200.0
	eps := 5 * time.Millisecond
	q := chainQuery(150 * time.Millisecond)
	split, err := Optimize(q, rate, profiles, eps, scheduler.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cost := func(m string, budget time.Duration, r float64) float64 {
		p := profiles[m]
		b := p.MaxBatchWithin(budget / 2)
		if b == 0 {
			return math.Inf(1)
		}
		return r / p.Throughput(b)
	}
	best := math.Inf(1)
	steps := int(q.SLO / eps)
	for kx := 1; kx < steps; kx++ {
		ky := steps - kx
		total := cost("mx", time.Duration(kx)*eps, rate) + cost("my", time.Duration(ky)*eps, rate)
		if total < best {
			best = total
		}
	}
	if math.Abs(split.GPUs-best) > 1e-9 {
		t.Fatalf("DP GPUs %v != brute force %v", split.GPUs, best)
	}
}

func TestOptimizeInfeasible(t *testing.T) {
	profiles := map[string]*profiler.Profile{
		"mx": linearProfile("mx", 2*time.Millisecond, 100*time.Millisecond),
		"my": linearProfile("my", 2*time.Millisecond, 100*time.Millisecond),
	}
	q := chainQuery(150 * time.Millisecond) // 2*l(1) per stage is ~204ms+
	if _, err := Optimize(q, 100, profiles, 5*time.Millisecond, scheduler.Config{}); err == nil {
		t.Fatal("infeasible query accepted")
	}
}

func TestOptimizeErrors(t *testing.T) {
	q := chainQuery(100 * time.Millisecond)
	profiles := map[string]*profiler.Profile{
		"mx": linearProfile("mx", time.Millisecond, time.Millisecond),
		"my": linearProfile("my", time.Millisecond, time.Millisecond),
	}
	if _, err := Optimize(q, 0, profiles, 0, scheduler.Config{}); err == nil {
		t.Error("zero rate accepted")
	}
	if _, err := Optimize(q, 10, map[string]*profiler.Profile{}, 0, scheduler.Config{}); err == nil {
		t.Error("missing profiles accepted")
	}
	tiny := chainQuery(time.Millisecond)
	if _, err := Optimize(tiny, 10, profiles, 5*time.Millisecond, scheduler.Config{}); err == nil {
		t.Error("SLO below epsilon accepted")
	}
}

// TestMalformedInput checks that a root rate that is not a positive finite
// number, or a grid finer than MaxSteps, is refused with its own error
// before the DP runs, by Optimize and, for rates, by SplitCost.
func TestMalformedInput(t *testing.T) {
	profiles := map[string]*profiler.Profile{
		"mx": linearProfile("mx", time.Millisecond, time.Millisecond),
		"my": linearProfile("my", time.Millisecond, time.Millisecond),
	}
	q := chainQuery(400 * time.Millisecond)
	split := &Split{Budgets: map[string]time.Duration{"x": 200 * time.Millisecond, "y": 200 * time.Millisecond}}
	for _, tc := range []struct {
		name string
		rate float64
		eps  time.Duration
		want string // error substring; "" = no error
	}{
		{"NaN rate", math.NaN(), 0, "not positive and finite"},
		{"+Inf rate", math.Inf(1), 0, "not positive and finite"},
		{"-Inf rate", math.Inf(-1), 0, "not positive and finite"},
		{"negative rate", -1, 0, "not positive and finite"},
		{"1ns grid", 10, time.Nanosecond, "above the 4096-step limit"},
		{"one step past the limit", 10, 400 * time.Millisecond / (MaxSteps + 1), "above the 4096-step limit"},
		{"at the limit", 10, 400 * time.Millisecond / MaxSteps, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Optimize(q, tc.rate, profiles, tc.eps, scheduler.Config{})
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Optimize: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Optimize: error %v, want one containing %q", err, tc.want)
			}
			if tc.eps != 0 {
				return // SplitCost takes no grid
			}
			if _, err := SplitCost(q, tc.rate, split, profiles, scheduler.Config{}); err == nil ||
				!strings.Contains(err.Error(), tc.want) {
				t.Fatalf("SplitCost: error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

func TestEvenSplit(t *testing.T) {
	q := &Query{Name: "q", SLO: 300 * time.Millisecond,
		Root: &Node{Name: "a", ModelID: "m", Edges: []Edge{
			{Gamma: 1, Child: &Node{Name: "b", ModelID: "m", Edges: []Edge{
				{Gamma: 1, Child: &Node{Name: "c", ModelID: "m"}},
			}}},
			{Gamma: 1, Child: &Node{Name: "d", ModelID: "m"}},
		}}}
	split, err := EvenSplit(q)
	if err != nil {
		t.Fatal(err)
	}
	// Longest path a->b->c has 3 stages: everyone gets 100ms.
	for _, n := range []string{"a", "b", "c", "d"} {
		if split.Budgets[n] != 100*time.Millisecond {
			t.Fatalf("node %s budget %v, want 100ms", n, split.Budgets[n])
		}
	}
}

func TestSessions(t *testing.T) {
	q := chainQuery(100 * time.Millisecond)
	split := &Split{Budgets: map[string]time.Duration{
		"x": 60 * time.Millisecond, "y": 40 * time.Millisecond,
	}}
	sessions, err := Sessions(q, 50, split)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("%d sessions", len(sessions))
	}
	for _, s := range sessions {
		switch s.ID {
		case "q/x":
			if s.SLO != 60*time.Millisecond || s.Rate != 50 {
				t.Fatalf("bad x session: %+v", s)
			}
		case "q/y":
			if s.SLO != 40*time.Millisecond || s.Rate != 50 {
				t.Fatalf("bad y session: %+v", s)
			}
		default:
			t.Fatalf("unexpected session %s", s.ID)
		}
	}
	incomplete := &Split{Budgets: map[string]time.Duration{"x": time.Millisecond}}
	if _, err := Sessions(q, 50, incomplete); err == nil {
		t.Fatal("incomplete split accepted")
	}
}

// TestFigure4 reproduces the paper's Figure 4 numbers exactly from the
// Figure 3 throughput table.
func TestFigure4(t *testing.T) {
	// Figure 3: X: 40ms->200 r/s, 50->250, 60->300; Y: 40->300, 50->400, 60->500.
	tputX := map[int]float64{40: 200, 50: 250, 60: 300}
	tputY := map[int]float64{40: 300, 50: 400, 60: 500}
	want := map[[2]int]map[string]float64{
		{40, 60}: {"0.1": 192.3, "1": 142.9, "10": 40.0},
		{50, 50}: {"0.1": 235.3, "1": 153.8, "10": 34.5},
		{60, 40}: {"0.1": 272.7, "1": 150.0, "10": 27.3},
	}
	gammas := map[string]float64{"0.1": 0.1, "1": 1, "10": 10}
	for splitPlan, results := range want {
		for gs, wantT := range results {
			got := PipelineAvgThroughput(tputX[splitPlan[0]], tputY[splitPlan[1]], gammas[gs])
			if math.Abs(got-wantT) > 0.1 {
				t.Errorf("split %v gamma %s: got %.1f, want %.1f", splitPlan, gs, got, wantT)
			}
		}
	}
}

// TestFigure4NoUniversalBest verifies §4.2's observation: different gammas
// prefer different splits.
func TestFigure4NoUniversalBest(t *testing.T) {
	tputX := map[int]float64{40: 200, 50: 250, 60: 300}
	tputY := map[int]float64{40: 300, 50: 400, 60: 500}
	bestFor := func(gamma float64) [2]int {
		best, bestT := [2]int{}, -1.0
		for _, p := range [][2]int{{40, 60}, {50, 50}, {60, 40}} {
			if tp := PipelineAvgThroughput(tputX[p[0]], tputY[p[1]], gamma); tp > bestT {
				best, bestT = p, tp
			}
		}
		return best
	}
	if bestFor(0.1) != [2]int{60, 40} {
		t.Errorf("gamma 0.1 best = %v, want [60 40]", bestFor(0.1))
	}
	if bestFor(1) != [2]int{50, 50} {
		t.Errorf("gamma 1 best = %v, want [50 50]", bestFor(1))
	}
	if bestFor(10) != [2]int{40, 60} {
		t.Errorf("gamma 10 best = %v, want [40 60]", bestFor(10))
	}
}

// Property: the DP split always fits the SLO along every root-leaf path and
// never does worse than the even split.
func TestPropertyOptimizeBeatsEvenSplit(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		profiles := map[string]*profiler.Profile{
			"a": linearProfile("a", time.Duration(rng.Intn(3000)+200)*time.Microsecond,
				time.Duration(rng.Intn(20)+2)*time.Millisecond),
			"b": linearProfile("b", time.Duration(rng.Intn(3000)+200)*time.Microsecond,
				time.Duration(rng.Intn(20)+2)*time.Millisecond),
		}
		gamma := []float64{0.1, 0.5, 1, 2, 10}[rng.Intn(5)]
		// SLO a multiple of 2*eps so the even split lies on the DP grid
		// (otherwise discretization could make the DP lose unfairly).
		q := &Query{Name: "q", SLO: time.Duration(rng.Intn(30)+15) * 10 * time.Millisecond,
			Root: &Node{Name: "x", ModelID: "a", Edges: []Edge{
				{Gamma: gamma, Child: &Node{Name: "y", ModelID: "b"}},
			}}}
		rate := float64(rng.Intn(500) + 10)
		eps := 5 * time.Millisecond
		opt, err := Optimize(q, rate, profiles, eps, scheduler.Config{})
		if err != nil {
			return true // infeasible under random profiles is fine
		}
		// Path constraint.
		if opt.Budgets["x"]+opt.Budgets["y"] > q.SLO {
			return false
		}
		// Compare with the cost of the even split under the same model.
		even, err := EvenSplit(q)
		if err != nil {
			return false
		}
		cost := func(sp *Split) float64 {
			var total float64
			rates := q.Rates(rate)
			for _, n := range q.Nodes() {
				p := profiles[n.ModelID]
				b := p.MaxBatchWithin(sp.Budgets[n.Name] / 2)
				if b == 0 {
					return math.Inf(1)
				}
				total += rates[n.Name] / p.Throughput(b)
			}
			return total
		}
		return cost(opt) <= cost(even)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkOptimize times one latency split of the traffic query (SSD, then
// car recognition at γ 1.5 and face recognition at γ 0.5, 400 ms) on
// catalog profiles, at the default grid and at the 1 ms one.
func BenchmarkOptimize(b *testing.B) {
	pdb, err := profiler.CatalogProfiles(model.Catalog())
	if err != nil {
		b.Fatal(err)
	}
	profiles := make(map[string]*profiler.Profile)
	for _, id := range []string{model.SSD, model.GoogLeNetCar, model.VGGFace} {
		profiles[id] = pdb.MustGet(id, profiler.GTX1080Ti)
	}
	q := &Query{Name: "traffic", SLO: 400 * time.Millisecond,
		Root: &Node{Name: "det", ModelID: model.SSD, Edges: []Edge{
			{Gamma: 1.5, Child: &Node{Name: "car", ModelID: model.GoogLeNetCar}},
			{Gamma: 0.5, Child: &Node{Name: "face", ModelID: model.VGGFace}},
		}}}
	for _, eps := range []time.Duration{5 * time.Millisecond, time.Millisecond} {
		b.Run(fmt.Sprintf("eps-%v", eps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Optimize(q, 80, profiles, eps, scheduler.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
