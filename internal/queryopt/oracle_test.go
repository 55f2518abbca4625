package queryopt

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"
	"time"

	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/scheduler"
)

// oracleOptimize is Optimize as it was before the stage costs were
// tabulated: it evaluates cost(n, k) inside the min-plus loop, O(S²) profile
// evaluations per node. TestOptimizeMatchesOracle holds the tabulated DP to
// it.
//
// Optimize computes the latency split minimizing estimated GPU count for
// serving the query at rootRate (§6.2). The cost of a node under budget k
// uses the same worst-case rule the packer enforces downstream: the best
// batch b with factor*ℓ(b) <= k, costing R·ℓ(b)/b GPUs. Infeasible
// (model slower than any split permits) returns an error.
func oracleOptimize(q *Query, rootRate float64, profiles map[string]*profiler.Profile,
	eps time.Duration, cfg scheduler.Config) (*Split, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if rootRate <= 0 {
		return nil, fmt.Errorf("queryopt: non-positive root rate %v", rootRate)
	}
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	steps := int(q.SLO / eps)
	if steps < 1 {
		return nil, fmt.Errorf("queryopt: SLO %v below epsilon %v", q.SLO, eps)
	}
	rates := q.Rates(rootRate)
	factor := cfg.SLOFactor
	if factor == 0 {
		factor = 2
	}

	// nodeCost[v][k] = GPUs for node v with a budget of k*eps.
	cost := func(n *Node, k int) (float64, error) {
		p, ok := profiles[n.ModelID]
		if !ok {
			return 0, fmt.Errorf("queryopt: no profile for model %s (node %s)", n.ModelID, n.Name)
		}
		budget := time.Duration(k) * eps
		b := p.MaxBatchWithin(time.Duration(float64(budget) / factor))
		if b == 0 {
			return math.Inf(1), nil
		}
		return rates[n.Name] / p.Throughput(b), nil
	}

	// f[v] is a table over budgets 0..steps: min GPUs for v's subtree.
	// split[v][t] records the budget v takes for itself at table entry t.
	type table struct {
		f     []float64
		taken []int
	}
	tables := make(map[*Node]*table)
	var build func(n *Node) error
	build = func(n *Node) error {
		for _, e := range n.Edges {
			if err := build(e.Child); err != nil {
				return err
			}
		}
		tb := &table{f: make([]float64, steps+1), taken: make([]int, steps+1)}
		for t := 0; t <= steps; t++ {
			bestVal := math.Inf(1)
			bestK := -1
			for k := 1; k <= t; k++ {
				c, err := cost(n, k)
				if err != nil {
					return err
				}
				if math.IsInf(c, 1) {
					continue
				}
				total := c
				for _, e := range n.Edges {
					total += tables[e.Child].f[t-k]
				}
				if total < bestVal {
					bestVal, bestK = total, k
				}
			}
			tb.f[t] = bestVal
			tb.taken[t] = bestK
		}
		tables[n] = tb
		return nil
	}
	if err := build(q.Root); err != nil {
		return nil, err
	}
	root := tables[q.Root]
	if math.IsInf(root.f[steps], 1) {
		return nil, fmt.Errorf("queryopt: query %s infeasible within SLO %v", q.Name, q.SLO)
	}
	// Walk down recording chosen budgets.
	split := &Split{Budgets: make(map[string]time.Duration), GPUs: root.f[steps]}
	var assign func(n *Node, t int)
	assign = func(n *Node, t int) {
		k := tables[n].taken[t]
		split.Budgets[n.Name] = time.Duration(k) * eps
		for _, e := range n.Edges {
			assign(e.Child, t-k)
		}
	}
	assign(q.Root, steps)
	return split, nil
}

// randomQuery builds a query of 1-6 nodes shaped as a chain, a fan-out
// from the root or a random tree, on catalog models (one in fifty nodes
// names a model with no profile), with gammas log-uniform in [0.1, 10].
func randomQuery(rng *rand.Rand, models []string) *Query {
	nodes := make([]*Node, 1+rng.Intn(6))
	shape := rng.Intn(3)
	for i := range nodes {
		n := &Node{Name: fmt.Sprintf("n%d", i), ModelID: models[rng.Intn(len(models))]}
		if rng.Intn(50) == 0 {
			n.ModelID = "unprofiled"
		}
		nodes[i] = n
		if i == 0 {
			continue
		}
		parent := nodes[rng.Intn(i)]
		switch shape {
		case 0:
			parent = nodes[i-1]
		case 1:
			parent = nodes[0]
		}
		gamma := math.Pow(10, 2*rng.Float64()-1)
		parent.Edges = append(parent.Edges, Edge{Gamma: gamma, Child: n})
	}
	slo := 20*time.Millisecond + time.Duration(rng.Int63n(int64(580*time.Millisecond)))
	return &Query{Name: "q", SLO: slo, Root: nodes[0]}
}

// TestOptimizeMatchesOracle checks that the tabulated DP returns exactly
// what the quadratic one did: the same budgets, bit-identical GPU
// estimates and the same errors, over 2,000 random queries, rates, grids
// and SLO factors, in parallel chunks because the oracle is slow.
func TestOptimizeMatchesOracle(t *testing.T) {
	pdb, err := profiler.CatalogProfiles(model.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	models := model.CatalogIDs()
	profiles := make(map[string]*profiler.Profile, len(models))
	for _, id := range models {
		profiles[id] = pdb.MustGet(id, profiler.GTX1080Ti)
	}
	epsilons := []time.Duration{time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 50 * time.Millisecond}
	factors := []float64{0, 2, 3}
	const chunks, cases = 8, 250
	for c := int64(1); c <= chunks; c++ {
		t.Run(fmt.Sprint("seed", c), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(c))
			var feasible, failed int
			for i := 0; i < cases; i++ {
				q := randomQuery(rng, models)
				rate := math.Pow(10, 3*rng.Float64())
				eps := epsilons[rng.Intn(len(epsilons))]
				cfg := scheduler.Config{SLOFactor: factors[rng.Intn(len(factors))]}
				got, gotErr := Optimize(q, rate, profiles, eps, cfg)
				want, wantErr := oracleOptimize(q, rate, profiles, eps, cfg)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("case %d: error %v, oracle %v", i, gotErr, wantErr)
				}
				if wantErr != nil {
					failed++
					continue
				}
				feasible++
				if !maps.Equal(got.Budgets, want.Budgets) {
					t.Fatalf("case %d (eps %v, factor %v): budgets %v, oracle %v",
						i, eps, cfg.SLOFactor, got.Budgets, want.Budgets)
				}
				if math.Float64bits(got.GPUs) != math.Float64bits(want.GPUs) {
					t.Fatalf("case %d: GPUs %v, oracle %v", i, got.GPUs, want.GPUs)
				}
			}
			// The generator must reach both outcomes for the comparison
			// to mean anything.
			if feasible < cases/4 || failed < cases/20 {
				t.Fatalf("%d feasible and %d failed cases of %d: generator too one-sided",
					feasible, failed, cases)
			}
			t.Logf("%d feasible, %d failed", feasible, failed)
		})
	}
}
