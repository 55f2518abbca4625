package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// TestChaosDegradedGolden pins the -short chaos and degraded tables, event
// counts included, to the bytes `nexus-bench -run chaos,degraded -short`
// prints on stdout. Both sweeps drive the frontend's retry path through
// crash, transient, and partition faults, so any change to retry or
// failover behaviour shows up here. Rewrite with -update after an
// intentional change.
func TestChaosDegradedGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "chaos_degraded_short.golden"), runShort(t, "chaos", "degraded"))
}

// TestFigure13WindowGolden pins the -short ctrl-shard and fig13 tables,
// event counts included, to the bytes `nexus-bench -run ctrl-shard,fig13
// -short` prints on stdout. Both run the Figure 13 deployment window, whose
// every epoch re-plans and republishes routes, so a change to the control
// plane's planning or route publishing shows up here. Rewrite with -update
// after an intentional change.
func TestFigure13WindowGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "fig13_window_short.golden"), runShort(t, "ctrl-shard", "fig13"))
}

// TestGPUMultiplexGolden pins the -short fig14 and spatial tables, event
// counts included, to the bytes `nexus-bench -run fig14,spatial -short`
// prints on stdout. fig14 runs Clipper and Nexus-parallel on Shared-mode
// devices and spatial runs units on compute partitions, so a change to
// either of gpusim's processor-sharing paths shows up here. Rewrite with
// -update after an intentional change.
func TestGPUMultiplexGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "gpu_multiplex_short.golden"), runShort(t, "fig14", "spatial"))
}

// TestMicroGolden pins the -short table1, table2, fig4, fig5, fig9 and fig15
// tables, event counts included, to the bytes `nexus-bench -run
// table1,table2,fig4,fig5,fig9,fig15 -short` prints on stdout. They cover
// the profiles and their costs, one squishy pack, the latency-split DP over
// fan-out, lazy and early dropping, and prefix batching, so a change to the
// profiler, the packer's worked example, queryopt or the backend's drop
// policies shows up here. Rewrite with -update after an intentional change.
func TestMicroGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "micro_short.golden"),
		runShort(t, "table1", "table2", "fig4", "fig5", "fig9", "fig15"))
}

// TestAblationsGolden pins the -short abl-slofactor, abl-epsilon, abl-slack,
// abl-window and abl-defer tables, event counts included, to the bytes
// `nexus-bench -run abl-slofactor,abl-epsilon,abl-slack,abl-window,abl-defer
// -short` prints on stdout. Each sweeps one planning or serving knob
// (worst-case SLO factor, DP grid, planning slack, early-drop window,
// drop versus defer), so a change to how a knob is applied shows up here.
// Rewrite with -update after an intentional change.
func TestAblationsGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "ablations_short.golden"),
		runShort(t, "abl-slofactor", "abl-epsilon", "abl-slack", "abl-window", "abl-defer"))
}

// TestSearchedGolden pins the -short fig11, fig12, fig17 and sec7.4 tables,
// event counts included, to the bytes `nexus-bench -run
// fig11,fig12,fig17,sec7.4 -short` prints on stdout. They search for the
// goodput of whole deployments (the traffic query's systems and ablation,
// rush versus non-rush hour, query analysis versus an even split, and GPU
// efficiency against the lower bound), so a change anywhere on the request
// path or in the goodput search shows up here. Rewrite with -update after
// an intentional change.
func TestSearchedGolden(t *testing.T) {
	checkGolden(t, filepath.Join("testdata", "searched_short.golden"),
		runShort(t, "fig11", "fig12", "fig17", "sec7.4"))
}

// runShort runs the given experiments in -short mode and returns their
// tables and event counts as nexus-bench prints them.
func runShort(t *testing.T, ids ...string) string {
	t.Helper()
	var b strings.Builder
	for _, id := range ids {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		rc := NewRunContext(true)
		tab, err := e.Run(rc)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(tab.String())
		fmt.Fprintf(&b, "  (%d simulation events)\n\n", rc.Events())
	}
	return b.String()
}

func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
