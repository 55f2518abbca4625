package scheduler

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"nexus/internal/profiler"
)

// TestResidualPlacementSustainable: a load whose SLO-feasible batch cannot
// keep up (ℓ(b) > b/r) must be carved onto dedicated saturate-batch nodes.
func TestResidualPlacementSustainable(t *testing.T) {
	// α=1ms, β=25ms, SLO 60ms: saturate batch B=5 (2ℓ(5)=60), T=166.7 r/s.
	// At rate 150, the shareable batch choice is unsustainable (see §6.1
	// discussion in DESIGN.md).
	p := linearProfile("m", time.Millisecond, 25*time.Millisecond, 64)
	s := Session{ID: "s", ModelID: "m", SLO: 60 * time.Millisecond, Rate: 150}
	dedicated, rest, err := residualPlacement(s, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dedicated) != 1 {
		t.Fatalf("dedicated nodes = %d, want 1", len(dedicated))
	}
	g := dedicated[0]
	if !g.Saturated {
		t.Fatal("carved node not marked saturated")
	}
	if g.Allocs[0].Batch != 5 {
		t.Fatalf("carved batch %d, want saturate batch 5", g.Allocs[0].Batch)
	}
	if math.Abs(g.Allocs[0].Rate-150) > 1e-9 {
		t.Fatalf("carved rate %v, want the whole 150", g.Allocs[0].Rate)
	}
	if rest != nil {
		t.Fatalf("unexpected shareable remainder %+v", rest)
	}
}

func TestResidualPlacementShareable(t *testing.T) {
	p := linearProfile("m", time.Millisecond, 10*time.Millisecond, 64)
	s := Session{ID: "s", ModelID: "m", SLO: 200 * time.Millisecond, Rate: 50}
	dedicated, rest, err := residualPlacement(s, p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(dedicated) != 0 {
		t.Fatalf("light load carved %d dedicated nodes", len(dedicated))
	}
	if rest == nil {
		t.Fatal("no shareable allocation")
	}
	if rest.occ > 1 {
		t.Fatalf("shareable occupancy %v > 1", rest.occ)
	}
}

// Property: residualPlacement conserves rate and produces only sustainable
// pieces (dedicated nodes run at most at capacity, shareable occ <= 1).
func TestPropertyResidualPlacement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alpha := time.Duration(rng.Intn(3000)+200) * time.Microsecond
		beta := time.Duration(rng.Intn(30)+2) * time.Millisecond
		p := linearProfile("m", alpha, beta, 64)
		slo := 2*p.BatchLatency(1) + time.Duration(rng.Intn(200)+5)*time.Millisecond
		rate := float64(rng.Intn(3000)) + 1
		s := Session{ID: "s", ModelID: "m", SLO: slo, Rate: rate}
		dedicated, rest, err := residualPlacement(s, p, Config{})
		if err != nil {
			return false
		}
		var served float64
		for _, g := range dedicated {
			served += g.Allocs[0].Rate
			// Dedicated nodes must be SLO-safe and within capacity.
			if 2*p.BatchLatency(g.Allocs[0].Batch) > slo {
				return false
			}
			if g.Allocs[0].Rate > p.Throughput(g.Allocs[0].Batch)+1e-9 {
				return false
			}
		}
		if rest != nil {
			served += rest.session.Rate
			if rest.occ > 1+1e-9 {
				return false
			}
			if rest.duty+p.BatchLatency(rest.batch) > slo {
				return false
			}
		}
		return math.Abs(served-rate) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanSessionRate(t *testing.T) {
	plan := &Plan{GPUs: []GPUPlan{
		{ID: "a", Allocs: []Alloc{{SessionID: "s", Rate: 10}}},
		{ID: "b", Allocs: []Alloc{{SessionID: "s", Rate: 5}, {SessionID: "t", Rate: 7}}},
	}}
	if got := plan.SessionRate("s"); got != 15 {
		t.Fatalf("SessionRate(s) = %v", got)
	}
	if got := plan.SessionRate("missing"); got != 0 {
		t.Fatalf("SessionRate(missing) = %v", got)
	}
}

func TestOccupancyErrors(t *testing.T) {
	g := &GPUPlan{Duty: 0, Allocs: []Alloc{{ModelID: "m", Batch: 1}}}
	if _, err := g.Occupancy(nil); err == nil {
		t.Fatal("zero duty accepted")
	}
	g.Duty = time.Second
	if _, err := g.Occupancy(map[string]*profiler.Profile{}); err == nil {
		t.Fatal("missing profile accepted")
	}
}

func TestSLOFactorConfig(t *testing.T) {
	p := linearProfile("m", time.Millisecond, 10*time.Millisecond, 64)
	profiles := map[string]*profiler.Profile{"m": p}
	sessions := []Session{{ID: "s", ModelID: "m", SLO: 100 * time.Millisecond, Rate: 2000}}
	// Factor 2 (default): B = max b with l(b) <= 50ms -> 40, T = 800/s.
	plan2, err := Pack(sessions, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Factor 4: B = max b with l(b) <= 25ms -> 15, lower T -> more GPUs.
	plan4, err := Pack(sessions, profiles, Config{SLOFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	if plan4.GPUCount() <= plan2.GPUCount() {
		t.Fatalf("stricter factor should need more GPUs: %d vs %d", plan4.GPUCount(), plan2.GPUCount())
	}
}

// TestIncrementalReuseStableBatches: tiny rate jitter must not change a
// shared node's batches or duty cycle (the reuse path).
func TestIncrementalReuseStableBatches(t *testing.T) {
	p := linearProfile("m", time.Millisecond, 10*time.Millisecond, 64)
	profiles := map[string]*profiler.Profile{"m": p}
	sessions := []Session{
		{ID: "s1", ModelID: "m", SLO: 150 * time.Millisecond, Rate: 100},
		{ID: "s2", ModelID: "m", SLO: 150 * time.Millisecond, Rate: 80},
	}
	prev, err := Pack(sessions, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	jittered := []Session{
		{ID: "s1", ModelID: "m", SLO: 150 * time.Millisecond, Rate: 101},
		{ID: "s2", ModelID: "m", SLO: 150 * time.Millisecond, Rate: 79.5},
	}
	next, err := incremental(prev, jittered, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats := DiffPlans(prev, next); stats.SessionsMoved != 0 {
		t.Fatalf("jitter moved sessions: %+v", stats)
	}
	if err := Validate(next, jittered, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
	// Node set unchanged: rebuilds in place are fine (batch updates do not
	// reload models), but nodes must not appear or vanish under jitter.
	if len(next.GPUs) != len(prev.GPUs) {
		t.Fatalf("node count changed %d -> %d", len(prev.GPUs), len(next.GPUs))
	}
	// With rates strictly below the previous plan, the exact schedule is
	// reused verbatim.
	lower := []Session{
		{ID: "s1", ModelID: "m", SLO: 150 * time.Millisecond, Rate: 95},
		{ID: "s2", ModelID: "m", SLO: 150 * time.Millisecond, Rate: 76},
	}
	reused, err := incremental(prev, lower, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range prev.GPUs {
		if prev.GPUs[i].Duty != reused.GPUs[i].Duty {
			t.Fatalf("duty changed on falling rates: %v -> %v", prev.GPUs[i].Duty, reused.GPUs[i].Duty)
		}
	}
}

// TestIncrementalDedicatedKeepHysteresis: a session at the dedicated/
// shareable boundary keeps its dedicated node while still >=50% utilized.
func TestIncrementalDedicatedKeepHysteresis(t *testing.T) {
	p := linearProfile("m", time.Millisecond, 25*time.Millisecond, 64)
	profiles := map[string]*profiler.Profile{"m": p}
	// Same setup as TestResidualPlacementSustainable: rate 150 carves a
	// dedicated node (capacity 166.7).
	hi := []Session{{ID: "s", ModelID: "m", SLO: 60 * time.Millisecond, Rate: 150}}
	prev, err := Pack(hi, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(prev.GPUs) != 1 || !prev.GPUs[0].Saturated {
		t.Fatalf("setup: expected one dedicated node, got %+v", prev.GPUs)
	}
	// Rate drops to 100 (60% of capacity): keep the dedicated node.
	mid := []Session{{ID: "s", ModelID: "m", SLO: 60 * time.Millisecond, Rate: 100}}
	next, err := incremental(prev, mid, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	stats := DiffPlans(prev, next)
	if stats.NodesRemoved != 0 || !next.GPUs[0].Saturated {
		t.Fatalf("boundary jitter flapped the dedicated node: %+v", stats)
	}
	// Rate collapses to 20 (12%): release it.
	lo := []Session{{ID: "s", ModelID: "m", SLO: 60 * time.Millisecond, Rate: 20}}
	next2, err := incremental(next, lo, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(next2, lo, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
	if stats2 := DiffPlans(next, next2); stats2.NodesRemoved == 0 {
		t.Fatalf("collapsed load kept its dedicated node: %+v", stats2)
	}
}

func TestBatchObliviousIntegralReplicas(t *testing.T) {
	p := linearProfile("m", time.Millisecond, 10*time.Millisecond, 64)
	profiles := map[string]*profiler.Profile{"m": p}
	// One heavy session wanting ~half of a 4-GPU cluster: 2 replicas.
	sessions := []Session{
		{ID: "big", ModelID: "m", SLO: 100 * time.Millisecond, Rate: 900},
		{ID: "small", ModelID: "m", SLO: 100 * time.Millisecond, Rate: 100},
	}
	plan, err := BatchOblivious(sessions, profiles, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	replicas := map[string]int{}
	for _, g := range plan.GPUs {
		for _, a := range g.Allocs {
			replicas[a.SessionID]++
		}
	}
	if replicas["big"] < 2 {
		t.Fatalf("big session got %d replicas, want >= 2", replicas["big"])
	}
	if replicas["small"] != 1 {
		t.Fatalf("small session got %d replicas, want 1", replicas["small"])
	}
}

func TestValidateSLOFactorOnSaturated(t *testing.T) {
	p := linearProfile("m", time.Millisecond, 10*time.Millisecond, 64)
	profiles := map[string]*profiler.Profile{"m": p}
	sessions := []Session{{ID: "s", ModelID: "m", SLO: 100 * time.Millisecond, Rate: 100}}
	// A saturated node at batch 40 (l=50ms): valid under factor 2, invalid
	// under factor 3.
	plan := &Plan{GPUs: []GPUPlan{{
		ID: "n0", Duty: 50 * time.Millisecond, Saturated: true,
		Allocs: []Alloc{{SessionID: "s", ModelID: "m", Batch: 40, Rate: 100}},
	}}}
	if err := Validate(plan, sessions, profiles, Config{}); err != nil {
		t.Fatalf("factor-2 validation failed: %v", err)
	}
	if Validate(plan, sessions, profiles, Config{SLOFactor: 3}) == nil {
		t.Fatal("factor-3 validation should reject 3*50ms > 100ms")
	}
}
