// Package queryopt implements Nexus's complex query scheduling (§4.2,
// §6.2): applications express dataflow queries over multiple models (e.g.
// detect objects, then recognize each), specify one whole-query latency
// SLO, and the optimizer splits that budget across the constituent models
// so that the total number of GPUs is minimized:
//
//	minimize   Σ_v  R_v · ℓ_v(b_v)/b_v
//	subject to Σ_{u on root→leaf path} budget_u <= L   for every leaf
//
// solved by dynamic programming over the query tree with the time budget
// discretized into L/ε segments.
package queryopt

import (
	"fmt"
	"math"
	"time"

	"nexus/internal/profiler"
	"nexus/internal/scheduler"
)

// Edge connects a query node to a child with a fan-out factor gamma: each
// invocation of the parent yields gamma invocations of the child on
// average (γ<1 filters, γ=1 maps, γ>1 expands — §4.2).
type Edge struct {
	Gamma float64
	Child *Node
}

// Node is one model invocation stage in a query.
type Node struct {
	Name    string
	ModelID string
	Edges   []Edge
}

// Query is a dataflow query tree with a whole-query latency SLO.
type Query struct {
	Name string
	Root *Node
	SLO  time.Duration
}

// Validate checks tree shape, unique names, and positive gammas.
func (q *Query) Validate() error {
	if q.Root == nil {
		return fmt.Errorf("queryopt: query %s has no root", q.Name)
	}
	if q.SLO <= 0 {
		return fmt.Errorf("queryopt: query %s has non-positive SLO", q.Name)
	}
	seen := make(map[string]bool)
	var walk func(n *Node) error
	walk = func(n *Node) error {
		if n.Name == "" || n.ModelID == "" {
			return fmt.Errorf("queryopt: node with empty name/model in query %s", q.Name)
		}
		if seen[n.Name] {
			return fmt.Errorf("queryopt: duplicate node name %q in query %s", n.Name, q.Name)
		}
		seen[n.Name] = true
		for _, e := range n.Edges {
			if e.Gamma <= 0 || math.IsNaN(e.Gamma) || math.IsInf(e.Gamma, 0) {
				return fmt.Errorf("queryopt: node %s has invalid gamma %v", n.Name, e.Gamma)
			}
			if e.Child == nil {
				return fmt.Errorf("queryopt: node %s has nil child", n.Name)
			}
			if err := walk(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(q.Root)
}

// Nodes returns all nodes in pre-order.
func (q *Query) Nodes() []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n)
		for _, e := range n.Edges {
			walk(e.Child)
		}
	}
	if q.Root != nil {
		walk(q.Root)
	}
	return out
}

// Rates returns each node's request rate given the root rate: the root
// rate multiplied by the gammas along the path.
func (q *Query) Rates(rootRate float64) map[string]float64 {
	rates := make(map[string]float64)
	var walk func(n *Node, r float64)
	walk = func(n *Node, r float64) {
		rates[n.Name] = r
		for _, e := range n.Edges {
			walk(e.Child, r*e.Gamma)
		}
	}
	if q.Root != nil {
		walk(q.Root, rootRate)
	}
	return rates
}

// Split is the result of latency-split optimization: a per-node latency
// budget and the estimated GPU cost of serving the query at the given rate.
type Split struct {
	Budgets map[string]time.Duration
	GPUs    float64
}

// DefaultEpsilon is the DP discretization when the caller passes zero.
const DefaultEpsilon = 5 * time.Millisecond

// MaxSteps bounds the DP grid SLO/ε. Each node's tables hold MaxSteps+1
// entries and its min-plus loop takes O(MaxSteps²) additions, so a tiny ε
// (1 ns at a 400 ms SLO asks for 4·10⁸ entries per node) is refused
// instead of allocated. The finest grid the repository plans on is 600
// steps (a 600 ms SLO at ε = 1 ms).
const MaxSteps = 4096

// Optimize computes the latency split minimizing estimated GPU count for
// serving the query at rootRate (§6.2). The cost of a node under budget k
// uses the same worst-case rule the packer enforces downstream: the best
// batch b with factor*ℓ(b) <= k, costing R·ℓ(b)/b GPUs. Infeasible
// (model slower than any split permits) returns an error.
//
// Each node's cost curve over the budgets ε..SLO is tabulated once, so a
// query of N nodes on S = SLO/ε steps costs O(N·S) profile evaluations and
// O(N·S²) additions.
func Optimize(q *Query, rootRate float64, profiles map[string]*profiler.Profile,
	eps time.Duration, cfg scheduler.Config) (*Split, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if err := checkRate(rootRate); err != nil {
		return nil, err
	}
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	steps := int(q.SLO / eps)
	if steps < 1 {
		return nil, fmt.Errorf("queryopt: SLO %v below epsilon %v", q.SLO, eps)
	}
	if steps > MaxSteps {
		return nil, fmt.Errorf("queryopt: SLO %v over epsilon %v is %d steps, above the %d-step limit",
			q.SLO, eps, steps, MaxSteps)
	}
	rates := q.Rates(rootRate)
	factor := cfg.WorstCaseFactor()

	// f[v] is a table over budgets 0..steps: min GPUs for v's subtree.
	// split[v][t] records the budget v takes for itself at table entry t.
	type table struct {
		f     []float64
		taken []int
	}
	tables := make(map[*Node]*table)
	// cost[k] = GPUs for the node being built with a budget of k*eps,
	// filled once its children's tables are done.
	cost := make([]float64, steps+1)
	var build func(n *Node) error
	build = func(n *Node) error {
		kids := make([][]float64, len(n.Edges))
		for i, e := range n.Edges {
			if err := build(e.Child); err != nil {
				return err
			}
			kids[i] = tables[e.Child].f
		}
		p, ok := profiles[n.ModelID]
		if !ok {
			return fmt.Errorf("queryopt: no profile for model %s (node %s)", n.ModelID, n.Name)
		}
		rate := rates[n.Name]
		for k := 1; k <= steps; k++ {
			cost[k] = stageCost(p, rate, time.Duration(k)*eps, factor)
		}
		tb := &table{f: make([]float64, steps+1), taken: make([]int, steps+1)}
		for t := 0; t <= steps; t++ {
			bestVal := math.Inf(1)
			bestK := -1
			for k := 1; k <= t; k++ {
				if math.IsInf(cost[k], 1) {
					continue
				}
				total := cost[k]
				for _, f := range kids {
					total += f[t-k]
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

// checkRate rejects a root rate that is not a positive finite number.
func checkRate(rootRate float64) error {
	if !(rootRate > 0) || math.IsInf(rootRate, 1) {
		return fmt.Errorf("queryopt: root rate %v is not positive and finite", rootRate)
	}
	return nil
}

// stageCost is the GPUs a stage at rate needs under budget: rate over the
// throughput of the largest batch b with factor*ℓ(b) <= budget, or +Inf
// when no batch fits.
func stageCost(p *profiler.Profile, rate float64, budget time.Duration, factor float64) float64 {
	b := p.MaxBatchWithin(time.Duration(float64(budget) / factor))
	if b == 0 {
		return math.Inf(1)
	}
	return rate / p.Throughput(b)
}

// SplitCost evaluates the estimated GPU cost of serving the query at
// rootRate under a given latency split, with the same cost model Optimize
// uses. It returns +Inf when a stage is infeasible under its budget.
func SplitCost(q *Query, rootRate float64, split *Split, profiles map[string]*profiler.Profile, cfg scheduler.Config) (float64, error) {
	if err := checkRate(rootRate); err != nil {
		return 0, err
	}
	factor := cfg.WorstCaseFactor()
	rates := q.Rates(rootRate)
	var total float64
	for _, n := range q.Nodes() {
		budget, ok := split.Budgets[n.Name]
		if !ok {
			return 0, fmt.Errorf("queryopt: split missing node %s", n.Name)
		}
		p, ok := profiles[n.ModelID]
		if !ok {
			return 0, fmt.Errorf("queryopt: no profile for model %s", n.ModelID)
		}
		c := stageCost(p, rates[n.Name], budget, factor)
		if math.IsInf(c, 1) {
			return c, nil
		}
		total += c
	}
	return total, nil
}

// EvenSplit is the baseline latency split used in §7.2/§7.5: the query SLO
// divided evenly across the stages of the longest root-leaf path, the same
// budget for every node.
func EvenSplit(q *Query) (*Split, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	depth := 0
	var walk func(n *Node, d int)
	walk = func(n *Node, d int) {
		if d > depth {
			depth = d
		}
		for _, e := range n.Edges {
			walk(e.Child, d+1)
		}
	}
	walk(q.Root, 1)
	per := q.SLO / time.Duration(depth)
	split := &Split{Budgets: make(map[string]time.Duration)}
	for _, n := range q.Nodes() {
		split.Budgets[n.Name] = per
	}
	return split, nil
}

// StageID returns the session ID of a query stage: "<query>/<node>".
func StageID(q *Query, n *Node) string { return q.Name + "/" + n.Name }

// Sessions converts a query plus a latency split into scheduler sessions,
// one per node, with rates derived from the root rate. Session IDs are
// StageIDs.
func Sessions(q *Query, rootRate float64, split *Split) ([]scheduler.Session, error) {
	rates := q.Rates(rootRate)
	var out []scheduler.Session
	for _, n := range q.Nodes() {
		budget, ok := split.Budgets[n.Name]
		if !ok {
			return nil, fmt.Errorf("queryopt: split missing node %s", n.Name)
		}
		out = append(out, scheduler.Session{
			ID:      StageID(q, n),
			ModelID: n.ModelID,
			SLO:     budget,
			Rate:    rates[n.Name],
		})
	}
	return out, nil
}

// PipelineAvgThroughput computes the §4.2 two-stage pipeline metric: with
// per-GPU throughputs tx, ty for stages X and Y and fan-out gamma, GPUs are
// provisioned so neither stage bottlenecks (γ·p·TX = q·TY) and the average
// throughput is the pipeline throughput divided by total GPUs:
// p·TX/(p+q) = TX / (1 + γ·TX/TY).
func PipelineAvgThroughput(tx, ty, gamma float64) float64 {
	if tx <= 0 || ty <= 0 {
		return 0
	}
	return tx / (1 + gamma*tx/ty)
}
