// nexus-obs reads the observation log a run writes (nexus-sim -obs-out,
// schema in internal/obslog) and prints the breakdowns the paper's
// evaluation leans on:
//
//	nexus-obs trace [-chrome FILE] LOG  per-stage latency p50/p99, drops by cause,
//	                                    per-GPU duty-cycle timelines, p99 blame,
//	                                    and the control-plane audit log; -chrome
//	                                    also exports the spans for chrome://tracing
//	nexus-obs blame LOG                 each flight-recorder dump with its blame
//	                                    breakdown, then the whole trace's
//	nexus-obs diff LOG                  the scheduler's plan-diff history
//	nexus-obs top [-follow] [-refresh D] [-plain] LOG
//	                                    the live-telemetry dashboard, once or by
//	                                    tailing a log still being written
//
// LOG "-" reads standard input.
//
//	nexus-sim -app game -rate 300 -forensics -obs-out /tmp/run.jsonl
//	nexus-obs blame /tmp/run.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"time"

	"nexus/internal/obslog"
	"nexus/internal/trace"
)

const usage = "usage: nexus-obs <trace|blame|diff|top> [flags] LOG"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run executes one nexus-obs invocation, printing to stdout. Only
// `top -follow` runs until ctx is done.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return errors.New(usage)
	}
	cmd := args[0]
	fs := flag.NewFlagSet("nexus-obs "+cmd, flag.ContinueOnError)
	var chrome string
	var follow, plain bool
	var refresh time.Duration
	var render func(io.Writer, obslog.Log) error
	switch cmd {
	case "trace":
		fs.StringVar(&chrome, "chrome", "", "also export the spans as Chrome trace-event JSON to this file")
		render = obslog.WriteTrace
	case "blame":
		render = obslog.WriteBlame
	case "diff":
		render = obslog.WriteDiff
	case "top":
		fs.BoolVar(&follow, "follow", false, "keep tailing LOG as it grows, re-rendering as records arrive")
		fs.DurationVar(&refresh, "refresh", 500*time.Millisecond, "poll period while following")
		fs.BoolVar(&plain, "plain", false, "no terminal control codes")
		render = func(w io.Writer, l obslog.Log) error {
			if !plain {
				fmt.Fprint(w, "\x1b[H\x1b[2J")
			}
			return obslog.WriteTop(w, l)
		}
	default:
		return fmt.Errorf("unknown subcommand %q; %s", cmd, usage)
	}
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New(usage)
	}
	path := fs.Arg(0)
	if follow && path != "-" {
		return tail(ctx, stdout, path, refresh, render)
	}
	l, err := load(path)
	if err != nil {
		return err
	}
	if err := render(stdout, l); err != nil {
		return fmt.Errorf("nexus-obs %s: %s: %w", cmd, path, err)
	}
	if chrome == "" {
		return nil
	}
	if err := writeChrome(chrome, l.Spans); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "chrome trace written to %s (load in chrome://tracing)\n", chrome)
	return nil
}

// load reads a whole log from path, or from stdin for "-".
func load(path string) (obslog.Log, error) {
	r := io.Reader(os.Stdin)
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return obslog.Log{}, err
		}
		defer f.Close()
		r = f
	}
	l, err := obslog.Read(r)
	if err != nil {
		return l, fmt.Errorf("nexus-obs: %s: %w", path, err)
	}
	return l, nil
}

// tail follows a log another process may still be appending to, rendering
// a frame whenever new records arrive once there is a snapshot to show.
// Torn trailing lines stay buffered in the decoder and are retried on the
// next poll. Runs until ctx is done.
func tail(ctx context.Context, w io.Writer, path string, refresh time.Duration, render func(io.Writer, obslog.Log) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var l obslog.Log
	var dec obslog.Decoder
	for {
		chunk, err := io.ReadAll(f)
		if err != nil {
			return err
		}
		n, err := dec.Feed(&l, chunk)
		if err != nil {
			return fmt.Errorf("nexus-obs: %s: %w", path, err)
		}
		if n > 0 && len(l.Snapshots) > 0 {
			if err := render(w, l); err != nil {
				return err
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(refresh):
		}
	}
}

// writeChrome exports spans in Chrome trace-event format to path.
func writeChrome(path string, spans []trace.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
