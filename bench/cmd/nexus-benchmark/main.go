// Command nexus-benchmark runs one workload of the repository benchmark and
// prints its metrics: every metric by name with its unit, then one JSON
// result line. It exits 1 when the run fails or its outputs are incorrect.
//
//	nexus-benchmark -workload game-steady -seed 1 [-seconds 15] [-trace 1]
//
// A run is one discarded warm-up pass plus a fixed number of measured
// passes, each building a fresh deployment from the seed and simulating the
// workload's fixed virtual horizon. With -trace 0 the result line carries
// the end-to-end metrics; with -trace 1 the measured passes run under a CPU
// profile, one extra pass runs the request tracer, and the result line
// carries the per-layer metrics.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
)

func main() {
	os.Exit(mainExit(os.Args[1:]))
}

func mainExit(args []string) int {
	fs := flag.NewFlagSet("nexus-benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: game-steady, many-sessions, fleet-churn, traffic-chaos")
	seed := fs.Int64("seed", 1, "seed for the deployment and the workload's rate and phase draws")
	seconds := fs.Int("seconds", defaultSeconds, "nominal measuring time; scales the fixed pass count, never read as a wall-clock budget")
	traced := fs.Int("trace", 0, "1 profiles the passes and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "nexus-benchmark:", err)
		return 2
	}
	rep, err := run(w, options{seed: *seed, passes: w.passesFor(*seconds), trace: *traced == 1})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nexus-benchmark:", err)
		return 1
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nexus-benchmark:", err)
		return 1
	}
	if !rep.correct {
		return 1
	}
	return 0
}

// defaultSeconds is the nominal measuring time the workloads' pass counts
// are set for.
const defaultSeconds = 15

// passesFor scales the workload's pass count to a nominal measuring time
// (at least three passes, so a median has a middle).
func (w *workload) passesFor(seconds int) int {
	n := int(math.Round(float64(w.passes*seconds) / defaultSeconds))
	if n < 3 {
		n = 3
	}
	return n
}
