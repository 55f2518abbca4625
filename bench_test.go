// Benchmarks that regenerate every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment end to end
// on the simulated cluster and logs the resulting table; run with
//
//	go test -bench=. -benchmem
//
// Benchmarks use the experiments' "short" mode (reduced simulation horizons
// and coarser goodput searches); use `go run ./cmd/nexus-bench -run all`
// for full-precision tables.
package nexus_test

import (
	"testing"

	"nexus/internal/experiments"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		e, err := experiments.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		table, err := e.Run(experiments.NewRunContext(true))
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + table.String())
		}
	}
}

// BenchmarkTable1_CostModel regenerates Table 1: per-model execution
// latency on CPU and GPU, and dollar cost per 1000 invocations.
func BenchmarkTable1_CostModel(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkTable2_SquishyExample regenerates the Table 2 / Figure 2 worked
// example of squishy bin packing.
func BenchmarkTable2_SquishyExample(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFigure4_LatencySplit regenerates Figures 3-4: pipeline
// throughput of three latency split plans across fan-out gammas.
func BenchmarkFigure4_LatencySplit(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5_LazyDropBadRate regenerates Figure 5: lazy dropping's
// bad rate under uniform and Poisson arrivals across alpha.
func BenchmarkFigure5_LazyDropBadRate(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure9_EarlyDrop regenerates Figure 9: max goodput of lazy vs
// early drop.
func BenchmarkFigure9_EarlyDrop(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFigure10_GameAblation regenerates Figure 10: game analysis
// across serving systems plus the cumulative feature ablation.
func BenchmarkFigure10_GameAblation(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFigure11_TrafficAblation regenerates Figure 11: traffic
// analysis across serving systems plus the cumulative ablation.
func BenchmarkFigure11_TrafficAblation(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFigure12_RushHour regenerates Figure 12: rush vs non-rush hour
// throughput for four systems.
func BenchmarkFigure12_RushHour(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFigure13_LargeScale regenerates Figure 13: the long-running
// multi-application deployment window (load, GPU usage, bad rate).
func BenchmarkFigure13_LargeScale(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkSection74_Utilization regenerates §7.4's GPU-efficiency
// comparison against the theoretical lower bound.
func BenchmarkSection74_Utilization(b *testing.B) { runExperiment(b, "sec7.4") }

// BenchmarkFigure14_Multiplexing regenerates Figure 14: single-GPU
// multiplexing across model counts and SLOs for four systems.
func BenchmarkFigure14_Multiplexing(b *testing.B) { runExperiment(b, "fig14") }

// BenchmarkFigure15_PrefixBatching regenerates Figure 15: prefix batching
// throughput and memory scaling with variant count.
func BenchmarkFigure15_PrefixBatching(b *testing.B) { runExperiment(b, "fig15") }

// BenchmarkFigure16_SquishyScheduling regenerates Figure 16: squishy vs
// batch-oblivious scheduling across workload mixes.
func BenchmarkFigure16_SquishyScheduling(b *testing.B) { runExperiment(b, "fig16") }

// BenchmarkFigure17_QueryAnalysis regenerates Figure 17: query analysis vs
// even latency splitting across SLOs and gammas.
func BenchmarkFigure17_QueryAnalysis(b *testing.B) { runExperiment(b, "fig17") }

// --- Ablation benches for the design decisions DESIGN.md §5-6 call out ---

// BenchmarkAblationSLOFactor sweeps the §4.1 worst-case factor.
func BenchmarkAblationSLOFactor(b *testing.B) { runExperiment(b, "abl-slofactor") }

// BenchmarkAblationEpsilon sweeps the latency-split DP discretization.
func BenchmarkAblationEpsilon(b *testing.B) { runExperiment(b, "abl-epsilon") }

// BenchmarkAblationSlack sweeps the control plane's planning slack.
func BenchmarkAblationSlack(b *testing.B) { runExperiment(b, "abl-slack") }

// BenchmarkAblationWindow sweeps the early-drop window size.
func BenchmarkAblationWindow(b *testing.B) { runExperiment(b, "abl-window") }

// BenchmarkAblationDefer contrasts drop vs defer-at-low-priority (§5).
func BenchmarkAblationDefer(b *testing.B) { runExperiment(b, "abl-defer") }

// BenchmarkCtrlShard compares the one-shard epoch planner against
// partitioned planning with hysteresis and delta routing on the Figure 13
// deployment window.
func BenchmarkCtrlShard(b *testing.B) { runExperiment(b, "ctrl-shard") }
