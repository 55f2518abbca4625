package experiments

import (
	"strconv"
	"testing"

	"nexus/internal/runner"
)

// runDegraded runs the degraded sweep at a fixed worker count and returns
// the rendered table plus the simulated event count.
func runDegraded(t *testing.T, workers int) (string, uint64) {
	t.Helper()
	prev := runner.SetDefaultWorkers(workers)
	defer runner.SetDefaultWorkers(prev)
	e, err := Get("degraded")
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRunContext(true)
	tab, err := e.Run(rc)
	if err != nil {
		t.Fatalf("degraded (workers=%d): %v", workers, err)
	}
	return tab.String(), rc.Events()
}

// TestDegradedDeterminism pins the degraded sweep to the engine's
// determinism contract: byte-identical tables and identical event counts
// at 1 and 8 workers, because every cell simulates its faults on an
// isolated seeded clock.
func TestDegradedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sweep twice")
	}
	seq, seqEvents := runDegraded(t, 1)
	par, parEvents := runDegraded(t, 8)
	if seq != par {
		t.Fatalf("degraded sweep diverged across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s", seq, par)
	}
	if seqEvents != parEvents {
		t.Fatalf("event counts diverged: %d vs %d", seqEvents, parEvents)
	}
}

// TestDegradedSurvivalClaims checks the sweep's headline numbers: the full
// degraded-mode stack rides out a long scheduler outage within a few
// points of its fault-free goodput, while leases without a repair path
// collapse; and a surge on session lo is shed by lo's admission bucket
// while session hi stays at its nominal attainment.
func TestDegradedSurvivalClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full sweep")
	}
	e, err := Get("degraded")
	if err != nil {
		t.Fatal(err)
	}
	rc := NewRunContext(true)
	table, err := e.Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(scenario, system, col string) float64 {
		for _, row := range table.Rows {
			if row[0] != scenario || row[1] != system {
				continue
			}
			for i, h := range table.Header {
				if h == col {
					v, err := strconv.ParseFloat(row[i], 64)
					if err != nil {
						t.Fatalf("cell (%s,%s,%s) = %q: %v", scenario, system, col, row[i], err)
					}
					return v
				}
			}
		}
		t.Fatalf("no row (%s, %s)", scenario, system)
		return 0
	}
	baseline := cell("none", "full-FT", "good %")
	outage := cell("outage", "full-FT", "good %")
	if baseline-outage > 10 {
		t.Fatalf("full-FT outage goodput %.1f%% vs fault-free %.1f%%, want within 10 points", outage, baseline)
	}
	collapsed := cell("outage", "lease-only", "good %")
	if baseline-collapsed < 20 {
		t.Fatalf("lease-only outage goodput %.1f%%, want a collapse (>= 20 points below %.1f%%)", collapsed, baseline)
	}
	if shed := cell("surge", "full-FT", "shed"); shed == 0 {
		t.Fatal("surge under full-FT shed nothing")
	}
	hiNominal := cell("none", "full-FT", "hi good %")
	hiSurge := cell("surge", "full-FT", "hi good %")
	if hiNominal-hiSurge > 5 {
		t.Fatalf("session hi goodput %.1f%% under surge vs %.1f%% nominal, want within 5 points", hiSurge, hiNominal)
	}
}
