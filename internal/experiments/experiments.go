// Package experiments regenerates every table and figure of the paper's
// evaluation (§2, §4, §7) on the simulated cluster. Each experiment
// produces a Table whose rows mirror what the paper reports; the bench
// harness (bench_test.go) and the nexus-bench CLI both dispatch into the
// registry here.
//
// The engine is parallel: sweeps fan independent cells (system x SLO x
// gamma x feature x model-count) through the runner pool, and goodput
// searches speculate several candidate rates per round. Every cell builds
// its own cluster.Deployment with its own simclock.Clock, so cells share
// no mutable state and results are identical at any worker count —
// runner.SetDefaultWorkers(1) reproduces the sequential engine byte for
// byte.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"

	"nexus/internal/runner"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		var sb strings.Builder
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s", pad+2, c)
		}
		fmt.Fprintln(w, " ", strings.TrimRight(sb.String(), " "))
	}
	printRow(t.Header)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// RunContext carries per-run knobs and accumulators through one
// experiment. Concurrent sweep cells share it, so the accumulators are
// atomic.
type RunContext struct {
	// Short trades precision for speed (shorter simulations, coarser
	// goodput searches); the benchmark harness uses it.
	Short bool

	// events counts simulation events executed across every deployment and
	// clock the experiment ran; nexus-bench reports it per experiment so
	// the perf trajectory is comparable across PRs.
	events atomic.Uint64
}

// NewRunContext returns a context for one experiment run.
func NewRunContext(short bool) *RunContext {
	return &RunContext{Short: short}
}

// AddEvents accumulates executed simulation events (Clock.Executed() of a
// finished simulation). Safe for concurrent cells.
func (rc *RunContext) AddEvents(n uint64) {
	if rc != nil {
		rc.events.Add(n)
	}
}

// Events returns the simulation events accumulated so far.
func (rc *RunContext) Events() uint64 {
	if rc == nil {
		return 0
	}
	return rc.events.Load()
}

// runCells runs n independent sweep cells through the runner pool, under
// name's profiling label, and returns their results in cell order, or the
// error of the first cell (by index) that failed.
func runCells[T any](name string, n int, cell func(i int) (T, error)) ([]T, error) {
	type result struct {
		v   T
		err error
	}
	results := runner.MapNamed(name, n, func(i int) result {
		v, err := cell(i)
		return result{v, err}
	})
	out := make([]T, n)
	for i, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		out[i] = r.v
	}
	return out, nil
}

// Experiment is one registry entry.
type Experiment struct {
	ID          string
	Description string
	// Run executes the experiment. The context supplies the short/full
	// switch and collects event counts; Run implementations fan
	// independent sweep cells through the runner pool.
	Run func(rc *RunContext) (*Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate id " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns an experiment by ID.
func Get(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (try List)", id)
	}
	return e, nil
}

// List returns all experiments sorted by ID.
func List() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
