// nexus-profile prints the batching profiles the management plane derives
// for catalog models (§5 "Model ingest" / "profiler"): batched execution
// latency ℓ(b), throughput, the largest SLO-safe batch, and memory needs.
//
//	nexus-profile                       # summary of every catalog model
//	nexus-profile -model resnet50       # ℓ(b) table for one model
//	nexus-profile -gpu v100 -slo 50ms   # different device / SLO column
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"nexus/internal/model"
	"nexus/internal/profiler"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run executes one nexus-profile invocation, printing to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("nexus-profile", flag.ContinueOnError)
	gpuFlag := fs.String("gpu", "gtx1080ti", "GPU type: gtx1080ti, k80, v100")
	modelFlag := fs.String("model", "", "print the full l(b) table for one model")
	sloFlag := fs.Duration("slo", 100*time.Millisecond, "SLO for the max-batch column")
	if err := fs.Parse(args); err != nil {
		return err
	}

	gpu := profiler.GPUType(*gpuFlag)
	if _, err := profiler.Spec(gpu); err != nil {
		return err
	}
	mdb := model.Catalog()
	pdb, err := profiler.CatalogProfiles(mdb)
	if err != nil {
		return err
	}

	if *modelFlag != "" {
		p, err := pdb.Get(*modelFlag, gpu)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "batching profile: %s on %s (alpha=%v beta=%v)\n", p.ModelID, p.GPU, p.Alpha, p.Beta)
		fmt.Fprintf(stdout, "%-8s %-14s %-12s\n", "batch", "latency l(b)", "req/s")
		for b := 1; b <= p.MaxBatch; b *= 2 {
			fmt.Fprintf(stdout, "%-8d %-14v %-12.1f\n", b, p.BatchLatency(b), p.Throughput(b))
		}
		return nil
	}

	fmt.Fprintf(stdout, "catalog profiles on %s (SLO column at %v)\n", gpu, *sloFlag)
	fmt.Fprintf(stdout, "%-15s %-12s %-12s %-10s %-12s %-10s\n",
		"model", "l(1)", "l(32)", "B(slo)", "T(slo) r/s", "mem")
	for _, id := range model.CatalogIDs() {
		p, err := pdb.Get(id, gpu)
		if err != nil {
			continue
		}
		b, tput := p.SaturateBatch(*sloFlag)
		bCol, tCol := "-", "-"
		if b > 0 {
			bCol = fmt.Sprint(b)
			tCol = fmt.Sprintf("%.0f", tput)
		}
		fmt.Fprintf(stdout, "%-15s %-12v %-12v %-10s %-12s %-10s\n",
			id, p.BatchLatency(1), p.BatchLatency(min(32, p.MaxBatch)),
			bCol, tCol, fmt.Sprintf("%.2fGB", float64(p.MemBase)/float64(1<<30)))
	}
	return nil
}
