package experiments

import (
	"testing"

	"nexus/internal/runner"
)

// TestCellFirstMatchOnDuplicateHeaders pins the duplicate-column rule:
// when several header columns share a name, Cell reads the first. Figure
// 14's table repeats per-system columns, so last-match silently read the
// wrong system.
func TestCellFirstMatchOnDuplicateHeaders(t *testing.T) {
	tab := &Table{
		ID:     "dup",
		Header: []string{"row", "tput", "bad %", "tput", "bad %"},
	}
	tab.AddRow("a", "100", "0.5", "200", "1.5")
	if got := tab.Cell("a", "tput"); got != "100" {
		t.Fatalf("Cell(a, tput) = %q, want first-column 100", got)
	}
	if got := tab.Cell("a", "bad %"); got != "0.5" {
		t.Fatalf("Cell(a, bad %%) = %q, want first-column 0.5", got)
	}
	if got := tab.Cell("a", "missing"); got != "" {
		t.Fatalf("Cell(a, missing) = %q, want empty", got)
	}
}

// TestParallelMatchesSequential is the engine's determinism contract:
// every experiment must produce byte-identical tables and identical event
// counts at any worker count, because sweep cells simulate on isolated
// clocks and goodput probes depend only on the bracket.
func TestParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments twice")
	}
	// A representative slice of the registry: plain sweeps (fig5), k-probe
	// goodput searches (fig9, abl-window), concurrent deployments
	// (abl-defer), the packing fan-out (ctrl-shard, whose sharded planner
	// packs its shards through runner.Map at 4 and 8 shards), the seeded
	// fault-injection sweep (chaos), and a deployment-level goodput search
	// (fig11: traffic queries through searchGoodput).
	ids := []string{"fig5", "fig9", "abl-window", "abl-defer", "ctrl-shard", "chaos", "fig11"}

	runAll := func(workers int) (map[string]string, map[string]uint64) {
		prev := runner.SetDefaultWorkers(workers)
		defer runner.SetDefaultWorkers(prev)
		tables := map[string]string{}
		events := map[string]uint64{}
		for _, id := range ids {
			e, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			rc := NewRunContext(true)
			tab, err := e.Run(rc)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", id, workers, err)
			}
			tables[id] = tab.String()
			events[id] = rc.Events()
		}
		return tables, events
	}

	seqTables, seqEvents := runAll(1)
	parTables, parEvents := runAll(8)
	for _, id := range ids {
		if seqTables[id] != parTables[id] {
			t.Errorf("%s: parallel table differs from sequential:\n--- sequential ---\n%s--- parallel ---\n%s",
				id, seqTables[id], parTables[id])
		}
		if seqEvents[id] != parEvents[id] {
			t.Errorf("%s: parallel ran %d events, sequential %d", id, parEvents[id], seqEvents[id])
		}
	}
}
