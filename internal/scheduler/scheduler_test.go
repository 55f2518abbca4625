package scheduler

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"nexus/internal/profiler"
)

// pointsFromKnots builds a measured latency table for batch sizes 1..max by
// linear interpolation between (batch, latency) knots, anchored at a
// pseudo-knot (0, beta0) so small batches have decreasing per-item cost.
func pointsFromKnots(beta0 time.Duration, knots map[int]time.Duration, max int) []time.Duration {
	pts := make([]time.Duration, max)
	prevB, prevL := 0, beta0
	for b := 1; b <= max; b++ {
		// Find the next knot at or beyond b.
		nextB, nextL := -1, time.Duration(0)
		for kb, kl := range knots {
			if kb >= b && (nextB == -1 || kb < nextB) {
				nextB, nextL = kb, kl
			}
		}
		if nextB == -1 { // beyond last knot: keep last slope
			pts[b-1] = pts[b-2] + (pts[b-2] - pts[b-3])
			continue
		}
		if l, ok := knots[b]; ok {
			pts[b-1] = l
			prevB, prevL = b, l
			continue
		}
		frac := float64(b-prevB) / float64(nextB-prevB)
		pts[b-1] = prevL + time.Duration(frac*float64(nextL-prevL))
	}
	return pts
}

// table2Profiles builds the batching profiles of Table 2 (models A, B, C).
func table2Profiles(t *testing.T) map[string]*profiler.Profile {
	t.Helper()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	base := func(id string) *profiler.Profile {
		return &profiler.Profile{ModelID: id, GPU: profiler.GTX1080Ti, Alpha: time.Millisecond, Beta: time.Millisecond, MaxBatch: 16}
	}
	pa := base("A").WithPoints(pointsFromKnots(ms(40), map[int]time.Duration{4: ms(50), 8: ms(75), 16: ms(100)}, 16))
	pb := base("B").WithPoints(pointsFromKnots(ms(30), map[int]time.Duration{4: ms(50), 8: ms(90), 16: ms(125)}, 16))
	pc := base("C").WithPoints(pointsFromKnots(ms(40), map[int]time.Duration{4: ms(60), 8: ms(95), 16: ms(125)}, 16))
	for _, p := range []*profiler.Profile{pa, pb, pc} {
		if err := p.Validate(); err != nil {
			t.Fatalf("table 2 profile invalid: %v", err)
		}
	}
	return map[string]*profiler.Profile{"A": pa, "B": pb, "C": pc}
}

func table2Sessions(ra, rb, rc float64) []Session {
	return []Session{
		{ID: "sA", ModelID: "A", SLO: 200 * time.Millisecond, Rate: ra},
		{ID: "sB", ModelID: "B", SLO: 250 * time.Millisecond, Rate: rb},
		{ID: "sC", ModelID: "C", SLO: 250 * time.Millisecond, Rate: rc},
	}
}

// TestTable2Saturate reproduces §4.1's saturated-workload analysis: max
// batch 16 for all three models, throughputs 160/128/128 req/s per GPU.
func TestTable2Saturate(t *testing.T) {
	profiles := table2Profiles(t)
	cases := []struct {
		model string
		slo   time.Duration
		wantB int
		wantT float64
	}{
		{"A", 200 * time.Millisecond, 16, 160},
		{"B", 250 * time.Millisecond, 16, 128},
		{"C", 250 * time.Millisecond, 16, 128},
	}
	for _, c := range cases {
		b := profiles[c.model].MaxBatchWithin(c.slo / 2)
		if b != c.wantB {
			t.Errorf("%s: saturate batch %d, want %d", c.model, b, c.wantB)
		}
		if tput := profiles[c.model].Throughput(b); math.Abs(tput-c.wantT) > 0.5 {
			t.Errorf("%s: throughput %.1f, want %.1f", c.model, tput, c.wantT)
		}
	}
}

// TestTable2Residual reproduces §4.1's residual-workload analysis
// (Figure 2b): A at 64 r/s batches 8 in a 125 ms duty cycle; B at 32 r/s
// fits alongside it (batch 4); C at 32 r/s does not and gets its own GPU.
func TestTable2Residual(t *testing.T) {
	profiles := table2Profiles(t)
	sessions := table2Sessions(64, 32, 32)
	plan, err := Pack(sessions, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(plan, sessions, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
	if plan.GPUCount() != 2 {
		t.Fatalf("GPU count = %d, want 2 (A+B colocated, C alone)", plan.GPUCount())
	}
	find := func(sid string) *GPUPlan {
		for i := range plan.GPUs {
			for _, a := range plan.GPUs[i].Allocs {
				if a.SessionID == sid {
					return &plan.GPUs[i]
				}
			}
		}
		return nil
	}
	nodeA, nodeB, nodeC := find("sA"), find("sB"), find("sC")
	if nodeA != nodeB {
		t.Error("A and B should share a GPU")
	}
	if nodeC == nodeA {
		t.Error("C should not share A's GPU")
	}
	if nodeA.Duty != 125*time.Millisecond {
		t.Errorf("A/B duty cycle = %v, want 125ms", nodeA.Duty)
	}
	for _, a := range nodeA.Allocs {
		switch a.SessionID {
		case "sA":
			if a.Batch != 8 {
				t.Errorf("A batch = %d, want 8", a.Batch)
			}
		case "sB":
			if a.Batch != 4 {
				t.Errorf("B batch = %d, want 4", a.Batch)
			}
		}
	}
}

// TestTable2SaturatedWorkload: high rates allocate whole GPUs per §4.1.
func TestTable2SaturatedWorkload(t *testing.T) {
	profiles := table2Profiles(t)
	sessions := table2Sessions(480, 256, 128) // 3, 2, 1 full GPUs exactly
	plan, err := Pack(sessions, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(plan, sessions, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
	sat := 0
	for _, g := range plan.GPUs {
		if g.Saturated {
			sat++
		}
	}
	if sat != 6 {
		t.Fatalf("saturated nodes = %d, want 6", sat)
	}
	if plan.GPUCount() != 6 {
		t.Fatalf("GPU count = %d, want 6", plan.GPUCount())
	}
}

func linearProfile(id string, alpha, beta time.Duration, maxBatch int) *profiler.Profile {
	return &profiler.Profile{
		ModelID: id, GPU: profiler.GTX1080Ti,
		Alpha: alpha, Beta: beta, MaxBatch: maxBatch,
		MemBase: 1 << 30, MemPerItem: 4 << 20,
	}
}

func TestPackInfeasibleSLO(t *testing.T) {
	profiles := map[string]*profiler.Profile{
		"m": linearProfile("m", time.Millisecond, 20*time.Millisecond, 32),
	}
	sessions := []Session{{ID: "s", ModelID: "m", SLO: 30 * time.Millisecond, Rate: 10}}
	if _, err := Pack(sessions, profiles, Config{}); err == nil {
		t.Fatal("SLO below 2*l(1) accepted")
	}
}

func TestPackUnknownModel(t *testing.T) {
	sessions := []Session{{ID: "s", ModelID: "ghost", SLO: time.Second, Rate: 10}}
	if _, err := Pack(sessions, nil, Config{}); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestPackZeroRateSkipped(t *testing.T) {
	profiles := map[string]*profiler.Profile{
		"m": linearProfile("m", time.Millisecond, 10*time.Millisecond, 32),
	}
	sessions := []Session{{ID: "s", ModelID: "m", SLO: 100 * time.Millisecond, Rate: 0}}
	plan, err := Pack(sessions, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.GPUCount() != 0 {
		t.Fatalf("zero-rate session allocated %d GPUs", plan.GPUCount())
	}
}

func TestSessionValidate(t *testing.T) {
	bad := []Session{
		{ID: "", ModelID: "m", SLO: time.Second, Rate: 1},
		{ID: "s", ModelID: "", SLO: time.Second, Rate: 1},
		{ID: "s", ModelID: "m", SLO: 0, Rate: 1},
		{ID: "s", ModelID: "m", SLO: time.Second, Rate: -1},
		{ID: "s", ModelID: "m", SLO: time.Second, Rate: math.NaN()},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("case %d: invalid session accepted: %+v", i, s)
		}
	}
}

func TestResidualBatchLowRateFallback(t *testing.T) {
	p := linearProfile("m", time.Millisecond, 10*time.Millisecond, 32)
	// The session runs a variant of m on m's profile, as a deployment
	// shares a source's profile with its variants.
	s := Session{ID: "s", ModelID: "m-v1", SLO: 100 * time.Millisecond}
	// 1 req/s, SLO 100ms: gathering even one request takes ~1s, so the
	// duty cycle clamps to SLO - l(1) = 89ms with batch 1.
	b, d, err := residualBatch(p, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b != 1 || d != 89*time.Millisecond {
		t.Fatalf("got batch %d duty %v, want 1, 89ms", b, d)
	}
	// High rate: l(b) + b/1000 <= 100ms; b=32 -> 42ms+32ms=74 <= 100. MaxBatch caps.
	b, d, err = residualBatch(p, s, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if b != 32 {
		t.Fatalf("high-rate batch = %d, want 32 (MaxBatch cap)", b)
	}
	if d != 32*time.Millisecond {
		t.Fatalf("duty = %v, want 32ms", d)
	}
	tight := s
	tight.SLO = 5 * time.Millisecond
	_, _, err = residualBatch(p, tight, 1)
	if err == nil {
		t.Fatal("SLO below l(1) accepted")
	}
	// The error names the session's model, not the profile's source.
	if msg := err.Error(); !strings.HasSuffix(msg, "for m-v1") {
		t.Fatalf("infeasible-SLO error %q does not name the session's model m-v1", msg)
	}
	loose := s
	loose.SLO = time.Second
	if _, _, err := residualBatch(p, loose, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
}

func TestPackMemoryConstraint(t *testing.T) {
	// Two tiny-load sessions that would share a GPU, but whose models
	// cannot both fit in memory.
	profiles := map[string]*profiler.Profile{
		"m1": linearProfile("m1", time.Millisecond, 5*time.Millisecond, 32),
		"m2": linearProfile("m2", time.Millisecond, 5*time.Millisecond, 32),
	}
	sessions := []Session{
		{ID: "s1", ModelID: "m1", SLO: 500 * time.Millisecond, Rate: 20},
		{ID: "s2", ModelID: "m2", SLO: 500 * time.Millisecond, Rate: 20},
	}
	cfg := Config{}
	plan, err := Pack(sessions, profiles, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan.GPUCount() != 1 {
		t.Fatalf("without memory limit: %d GPUs, want 1", plan.GPUCount())
	}
	cfgMem := Config{GPUMemBytes: 1<<30 + 500<<20} // fits one model only
	plan, err = Pack(sessions, profiles, cfgMem)
	if err != nil {
		t.Fatal(err)
	}
	if plan.GPUCount() != 2 {
		t.Fatalf("with memory limit: %d GPUs, want 2", plan.GPUCount())
	}
	if err := Validate(plan, sessions, profiles, cfgMem); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadPlans(t *testing.T) {
	profiles := map[string]*profiler.Profile{
		"m": linearProfile("m", time.Millisecond, 10*time.Millisecond, 32),
	}
	sessions := []Session{{ID: "s", ModelID: "m", SLO: 100 * time.Millisecond, Rate: 100}}
	// Overcommitted duty cycle.
	bad := &Plan{GPUs: []GPUPlan{{
		ID: "n0", Duty: 10 * time.Millisecond,
		Allocs: []Alloc{{SessionID: "s", ModelID: "m", Batch: 32, Rate: 100}},
	}}}
	if Validate(bad, sessions, profiles, Config{}) == nil {
		t.Error("overcommitted plan accepted")
	}
	// SLO violation: duty + l(b) > SLO.
	bad = &Plan{GPUs: []GPUPlan{{
		ID: "n0", Duty: 95 * time.Millisecond,
		Allocs: []Alloc{{SessionID: "s", ModelID: "m", Batch: 10, Rate: 100}},
	}}}
	if Validate(bad, sessions, profiles, Config{}) == nil {
		t.Error("SLO-violating plan accepted")
	}
	// Throughput shortfall.
	bad = &Plan{GPUs: []GPUPlan{{
		ID: "n0", Duty: 50 * time.Millisecond,
		Allocs: []Alloc{{SessionID: "s", ModelID: "m", Batch: 2, Rate: 40}},
	}}}
	if Validate(bad, sessions, profiles, Config{}) == nil {
		t.Error("under-provisioned plan accepted")
	}
	// Unknown session in plan.
	bad = &Plan{GPUs: []GPUPlan{{
		ID: "n0", Duty: 50 * time.Millisecond,
		Allocs: []Alloc{{SessionID: "ghost", ModelID: "m", Batch: 2, Rate: 40}},
	}}}
	if Validate(bad, sessions, profiles, Config{}) == nil {
		t.Error("plan with unknown session accepted")
	}
}

func randomWorkload(rng *rand.Rand) ([]Session, map[string]*profiler.Profile) {
	nModels := rng.Intn(4) + 1
	profiles := make(map[string]*profiler.Profile)
	for i := 0; i < nModels; i++ {
		id := fmt.Sprintf("m%d", i)
		alpha := time.Duration(rng.Intn(2000)+200) * time.Microsecond
		beta := time.Duration(rng.Intn(20)+2) * time.Millisecond
		profiles[id] = linearProfile(id, alpha, beta, 64)
	}
	nSessions := rng.Intn(8) + 1
	sessions := make([]Session, nSessions)
	for i := range sessions {
		mid := fmt.Sprintf("m%d", rng.Intn(nModels))
		// SLO comfortably above 2*l(1) for feasibility.
		minSLO := 2 * profiles[mid].BatchLatency(1)
		slo := minSLO + time.Duration(rng.Intn(400))*time.Millisecond
		sessions[i] = Session{
			ID:      fmt.Sprintf("s%d", i),
			ModelID: mid,
			SLO:     slo,
			Rate:    float64(rng.Intn(2000)) + 0.5,
		}
	}
	return sessions, profiles
}

// Property: Pack always produces a plan that passes Validate, and never
// uses fewer GPUs than the per-session throughput lower bound
// ceil(sum R_i/T_i) from §7.4.
func TestPropertyPackValidAndAboveLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sessions, profiles := randomWorkload(rng)
		cfg := Config{GPUMemBytes: 11 << 30}
		plan, err := Pack(sessions, profiles, cfg)
		if err != nil {
			t.Logf("seed %d: pack error: %v", seed, err)
			return false
		}
		if err := Validate(plan, sessions, profiles, cfg); err != nil {
			t.Logf("seed %d: validate error: %v", seed, err)
			return false
		}
		var lower float64
		for _, s := range sessions {
			p := profiles[s.ModelID]
			b := p.MaxBatchWithin(s.SLO / 2)
			if b == 0 {
				return true // infeasible would have errored above
			}
			lower += s.Rate / p.Throughput(b)
		}
		return plan.GPUCount() >= int(math.Ceil(lower-1e-9))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging never violates SLOs — guaranteed by construction, but
// exercised here with adversarial duty-cycle mixes.
func TestPropertyMergePreservesSLO(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sessions, profiles := randomWorkload(rng)
		// Compress rates so everything is residual (forces merging).
		for i := range sessions {
			sessions[i].Rate = float64(rng.Intn(50)) + 0.5
		}
		plan, err := Pack(sessions, profiles, Config{})
		if err != nil {
			return false
		}
		return Validate(plan, sessions, profiles, Config{}) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchOblivious(t *testing.T) {
	profiles := map[string]*profiler.Profile{
		"m1": linearProfile("m1", time.Millisecond, 10*time.Millisecond, 32),
		"m2": linearProfile("m2", 2*time.Millisecond, 20*time.Millisecond, 32),
	}
	sessions := []Session{
		{ID: "s1", ModelID: "m1", SLO: 100 * time.Millisecond, Rate: 600},
		{ID: "s2", ModelID: "m2", SLO: 200 * time.Millisecond, Rate: 200},
	}
	plan, err := BatchOblivious(sessions, profiles, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.GPUCount() == 0 || plan.GPUCount() > 4 {
		t.Fatalf("GPU count = %d", plan.GPUCount())
	}
	// Session rates must be fully distributed across whole-container
	// replicas, each replica on a distinct GPU.
	rateSum := map[string]float64{}
	var totalShare float64
	for _, g := range plan.GPUs {
		seen := map[string]bool{}
		for _, a := range g.Allocs {
			if seen[a.SessionID] {
				t.Fatalf("session %s has two replicas on one GPU", a.SessionID)
			}
			seen[a.SessionID] = true
			totalShare += a.Share
			rateSum[a.SessionID] += a.Rate
		}
	}
	for _, s := range sessions {
		if math.Abs(rateSum[s.ID]-s.Rate) > 1e-6 {
			t.Fatalf("session %s distributed rate %v, want %v", s.ID, rateSum[s.ID], s.Rate)
		}
	}
	if math.Abs(totalShare-4) > 1e-6 {
		t.Fatalf("total share %v, want the whole 4-GPU cluster", totalShare)
	}
	if _, err := BatchOblivious(sessions, profiles, 0, Config{}); err == nil {
		t.Fatal("zero GPUs accepted")
	}
}

func TestBatchObliviousEmpty(t *testing.T) {
	plan, err := BatchOblivious(nil, nil, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.GPUCount() != 0 {
		t.Fatal("empty workload should use no GPUs")
	}
}

func TestDiffPlans(t *testing.T) {
	// plan builds a plan from "node:session,session" specs.
	plan := func(nodes ...string) *Plan {
		p := &Plan{}
		for _, n := range nodes {
			id, sessions, _ := strings.Cut(n, ":")
			g := GPUPlan{ID: id}
			for _, sid := range strings.Split(sessions, ",") {
				g.Allocs = append(g.Allocs, Alloc{SessionID: sid, ModelID: "m"})
			}
			p.GPUs = append(p.GPUs, g)
		}
		return p
	}
	base := plan("n0:a,b", "n1:c")
	cases := []struct {
		name      string
		prev, cur *Plan
		want      MoveStats
	}{
		{"nil prev", nil, base, MoveStats{NodesAdded: 2}},
		{"unchanged", base, plan("n0:a,b", "n1:c"), MoveStats{NodesKept: 2}},
		{"session changes node", base, plan("n0:a", "n1:c,b"), MoveStats{NodesKept: 2, SessionsMoved: 1}},
		{"node added and removed", base, plan("n0:a,b", "n2:c"),
			MoveStats{NodesKept: 1, NodesAdded: 1, NodesRemoved: 1, SessionsMoved: 1}},
		{"split session gains a node", base, plan("n0:a,b", "n1:c", "n2:c"),
			MoveStats{NodesKept: 2, NodesAdded: 1, SessionsMoved: 1}},
		{"new session is placed", base, plan("n0:a,b", "n1:c,d"), MoveStats{NodesKept: 2}},
	}
	for _, c := range cases {
		if got := DiffPlans(c.prev, c.cur); got != c.want {
			t.Errorf("%s: DiffPlans = %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestIncrementalStableWhenUnchanged(t *testing.T) {
	profiles := table2Profiles(t)
	sessions := table2Sessions(64, 32, 32)
	prev, err := Pack(sessions, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	next, err := incremental(prev, sessions, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(next, sessions, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
	if stats := DiffPlans(prev, next); stats.SessionsMoved != 0 || stats.NodesAdded != 0 || stats.NodesRemoved != 0 {
		t.Fatalf("unchanged workload moved things: %+v", stats)
	}
	if next.GPUCount() != prev.GPUCount() {
		t.Fatalf("GPU count changed %d -> %d", prev.GPUCount(), next.GPUCount())
	}
	// Node IDs must be preserved.
	prevIDs := map[string]bool{}
	for _, g := range prev.GPUs {
		prevIDs[g.ID] = true
	}
	for _, g := range next.GPUs {
		if !prevIDs[g.ID] {
			t.Fatalf("node ID %s not carried over", g.ID)
		}
	}
}

func TestIncrementalScaleUp(t *testing.T) {
	profiles := table2Profiles(t)
	before := table2Sessions(64, 32, 32)
	prev, err := Pack(before, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	after := table2Sessions(320, 32, 32) // A needs a saturated GPU now
	next, err := incremental(prev, after, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(next, after, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
	if next.GPUCount() <= prev.GPUCount() {
		t.Fatalf("scale-up did not add GPUs: %d -> %d", prev.GPUCount(), next.GPUCount())
	}
	if stats := DiffPlans(prev, next); stats.NodesAdded == 0 {
		t.Fatalf("expected added nodes, got %+v", stats)
	}
}

func TestIncrementalScaleDownConsolidates(t *testing.T) {
	profiles := table2Profiles(t)
	before := table2Sessions(64, 32, 32)
	prev, err := Pack(before, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Load collapses: everything should fit on one GPU.
	after := table2Sessions(8, 4, 4)
	next, err := incremental(prev, after, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(next, after, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
	if next.GPUCount() > prev.GPUCount() {
		t.Fatalf("scale-down grew the cluster: %d -> %d", prev.GPUCount(), next.GPUCount())
	}
	if next.GPUCount() != 1 {
		t.Fatalf("GPU count after collapse = %d, want 1", next.GPUCount())
	}
}

func TestIncrementalRemovedSession(t *testing.T) {
	profiles := table2Profiles(t)
	before := table2Sessions(64, 32, 32)
	prev, err := Pack(before, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	after := before[:2] // C disappears
	next, err := incremental(prev, after, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(next, after, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
	if got := next.SessionRate("sC"); got != 0 {
		t.Fatalf("removed session still served at %v", got)
	}
}

// Property: incremental scheduling from any previous plan produces a valid
// plan for the new workload.
func TestPropertyIncrementalValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sessions, profiles := randomWorkload(rng)
		cfg := Config{GPUMemBytes: 11 << 30}
		prev, err := Pack(sessions, profiles, cfg)
		if err != nil {
			return false
		}
		// Perturb rates by up to +-50%, occasionally zeroing one.
		next := make([]Session, len(sessions))
		copy(next, sessions)
		for i := range next {
			next[i].Rate *= 0.5 + rng.Float64()
			if rng.Intn(10) == 0 {
				next[i].Rate = 0
			}
		}
		plan, err := incremental(prev, next, profiles, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if err := Validate(plan, next, profiles, cfg); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Figure 16's headline comparison at the scheduler level: squishy packing
// needs no more GPUs than batch-oblivious allocation for mixed-SLO loads.
func TestSquishyBeatsObliviousOnGPUCount(t *testing.T) {
	profiles := map[string]*profiler.Profile{
		"inception": linearProfile("inception", 900*time.Microsecond, 7*time.Millisecond, 64),
	}
	var sessions []Session
	slos := []time.Duration{50, 100, 150, 200}
	for i := 0; i < 16; i++ {
		sessions = append(sessions, Session{
			ID:      fmt.Sprintf("s%d", i),
			ModelID: "inception",
			SLO:     slos[i%4] * time.Millisecond,
			Rate:    120,
		})
	}
	plan, err := Pack(sessions, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(plan, sessions, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
	// The oblivious baseline in the paper is given a fixed cluster; here we
	// just check squishy's own count is close to the theoretical bound.
	var lower float64
	for _, s := range sessions {
		p := profiles[s.ModelID]
		b := p.MaxBatchWithin(s.SLO / 2)
		lower += s.Rate / p.Throughput(b)
	}
	if float64(plan.GPUCount()) > math.Ceil(lower)*1.5+1 {
		t.Fatalf("squishy used %d GPUs, lower bound %.1f", plan.GPUCount(), lower)
	}
}
