// nexus-sim runs an ad-hoc simulated deployment — one of the paper's
// applications, or a declarative JSON spec — and reports serving
// statistics and the per-second load / GPU-usage / bad-rate panels of
// Figure 13.
//
//	nexus-sim -app traffic -rate 200 -gpus 16 -duration 60s
//	nexus-sim -app all -scale 0.3 -gpus 32 -system clipper
//	nexus-sim -spec deployment.json -duration 120s -seed 2 -obs-out run.jsonl
//
// The cluster knob flags (-system, -gpus, -epoch, -shards, -retry-budget,
// ...) are derived from spec.Config, the one declaration of every knob.
// With -spec, a knob flag given on the command line overrides the file's
// key, and a key the file omits takes its spec default. Without -spec the
// run starts from the spec defaults with -gpus 16, -epoch 10s and -seed 1.
// The workload flags (-app, -rate, -scale, -rush, -duration) and the output
// flag -obs-out apply on both paths; with -spec, -app adds its sessions only
// when given. -obs-out writes every observation plane to one log that
// nexus-obs reads.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/obslog"
	"nexus/internal/spec"
	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// options holds the workload and output flags.
type options struct {
	spec, app   string
	rate, scale float64
	rush        bool
	duration    time.Duration
	obsOut      string
}

// flags declares the command line: the knob flags bound to c, then the
// workload and output flags bound to o.
func flags(c *spec.Config, o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("nexus-sim", flag.ContinueOnError)
	c.Flags(fs)
	fs.StringVar(&o.spec, "spec", "", "JSON deployment spec; knob flags given here override its keys")
	fs.StringVar(&o.app, "app", "", "game | traffic | dance | bb | bike | amber | logo | all (default traffic without -spec)")
	fs.Float64Var(&o.rate, "rate", 100, "offered request/query rate for the app")
	fs.Float64Var(&o.scale, "scale", 0.2, "workload scale for -app all")
	fs.BoolVar(&o.rush, "rush", false, "rush-hour traffic (higher per-frame fan-out)")
	fs.DurationVar(&o.duration, "duration", 60*time.Second, "measured virtual time")
	fs.StringVar(&o.obsOut, "obs-out", "", "write the observation log (spans, audit, telemetry, dumps) to this file for nexus-obs (implies tracing, -audit and -telemetry)")
	return fs
}

// parseArgs resolves the command line into a deployment document and the
// workload and output options. With -spec the arguments are parsed again
// over the loaded document, so a knob flag given on the command line
// overrides the file's key.
func parseArgs(args []string) (*spec.Deployment, *options, error) {
	doc := &spec.Deployment{Config: spec.Defaults()}
	doc.GPUs, doc.Epoch, doc.Seed = 16, 10, 1
	o := &options{}
	fs := flags(&doc.Config, o)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if o.spec != "" {
		f, err := os.Open(o.spec)
		if err != nil {
			return nil, nil, err
		}
		doc, err = spec.Parse(f)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		if err := flags(&doc.Config, o).Parse(args); err != nil {
			return nil, nil, err
		}
	}
	switch {
	case o.duration <= 0:
		return nil, nil, fmt.Errorf("-duration must be positive, got %v", o.duration)
	case o.rate < 0:
		return nil, nil, fmt.Errorf("-rate must not be negative, got %v", o.rate)
	case o.scale < 0:
		return nil, nil, fmt.Errorf("-scale must not be negative, got %v", o.scale)
	}
	if o.spec == "" && o.app == "" {
		o.app = "traffic"
	}
	// Each output destination turns on the planes that fill it.
	if o.obsOut != "" && doc.TraceCapacity == 0 {
		doc.TraceCapacity = 1 << 20 // a generously sized ring
	}
	doc.Audit = doc.Audit || o.obsOut != ""
	if o.obsOut != "" && doc.Telemetry == 0 {
		doc.Telemetry = spec.Seconds(telemetry.DefaultInterval.Seconds())
	}
	return doc, o, nil
}

// run executes one nexus-sim invocation, printing the report to stdout.
func run(args []string, stdout io.Writer) error {
	doc, o, err := parseArgs(args)
	if err != nil {
		return err
	}
	// Create the log before the run, so a bad path fails without simulating.
	var obs *os.File
	if o.obsOut != "" {
		if obs, err = os.Create(o.obsOut); err != nil {
			return err
		}
		defer obs.Close()
	}
	d, err := doc.Build()
	if err != nil {
		return err
	}
	label := o.spec
	if o.app != "" {
		builders, err := appBuilders(o)
		if err != nil {
			return err
		}
		for _, b := range builders {
			if _, err := apps.Deploy(d, b); err != nil {
				return err
			}
		}
		if label == "" {
			label = fmt.Sprintf("%s/%s", doc.System, o.app)
		}
	}
	return report(stdout, d, o.duration, label, doc.GPUs, obs)
}

// appBuilders returns the builders of the -app workload.
func appBuilders(o *options) ([]apps.Builder, error) {
	switch o.app {
	case "game":
		return []apps.Builder{apps.Game(20, o.rate/7)}, nil
	case "traffic":
		return []apps.Builder{apps.Traffic(20, o.rate/20, o.rush)}, nil
	case "dance":
		return []apps.Builder{apps.Dance(o.rate)}, nil
	case "bb":
		return []apps.Builder{apps.Billboard(o.rate)}, nil
	case "bike":
		return []apps.Builder{apps.Bike(o.rate)}, nil
	case "amber":
		return []apps.Builder{apps.Amber(o.rate)}, nil
	case "logo":
		return []apps.Builder{apps.Logo(o.rate)}, nil
	case "all":
		return apps.All(o.scale), nil
	}
	return nil, fmt.Errorf("unknown app %q", o.app)
}

// report executes the deployment and prints the standard panels, then each
// enabled plane inline or, when obs is set, into the observation log (the
// plane summaries stay inline).
func report(w io.Writer, d *cluster.Deployment, duration time.Duration, label string, gpus int, obs *os.File) error {
	bad, err := d.Run(duration)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "nexus-sim: %s for %v on %d GPUs\n", label, duration, gpus)
	fmt.Fprintf(w, "  bad rate:     %.2f%%\n", 100*bad)
	fmt.Fprintf(w, "  goodput:      %.1f req/s\n", d.Goodput(duration))
	fmt.Fprintf(w, "  GPUs in use:  %.1f (avg)\n", d.AvgGPUsUsed())
	fmt.Fprintf(w, "  unroutable:   %d\n", d.Unroutable())
	fmt.Fprintln(w, "\n  per-session:")
	for _, sid := range d.Recorder.SessionIDs() {
		s := d.Recorder.Session(sid)
		if s.Sent == 0 {
			continue
		}
		fmt.Fprintf(w, "    %-22s sent=%7d good=%7d dropped=%5d late=%5d p50=%-10v p99=%v\n",
			sid, s.Sent, s.Good(), s.Dropped, s.Missed,
			s.Latency.Quantile(0.5), s.Latency.Quantile(0.99))
	}
	fmt.Fprintln(w, "\n  timeline (10s buckets): offered r/s | GPUs | bad%")
	step := 10
	for i := 0; i*step < int(duration.Seconds()); i++ {
		var offered, badN, goodN, g float64
		for j := i * step; j < (i+1)*step; j++ {
			offered += d.Arrivals.Sum(j)
			badN += d.BadEvts.Sum(j)
			goodN += d.GoodEvts.Sum(j)
			g += d.GPUsUsed.Mean(j)
		}
		badPct := 0.0
		if badN+goodN > 0 {
			badPct = 100 * badN / (badN + goodN)
		}
		fmt.Fprintf(w, "    t=%3ds  %8.1f | %5.1f | %5.2f%%\n",
			(i+1)*step, offered/float64(step), g/float64(step), badPct)
	}
	l := d.ObsLog()
	if tr := d.Tracer(); tr != nil && obs == nil {
		fmt.Fprintf(w, "\n  trace (last %d of %d events):\n", len(l.Spans), tr.Total())
		if err := trace.WriteText(w, l.Spans); err != nil {
			return err
		}
	}
	if l.Audit != nil && obs == nil {
		fmt.Fprintln(w, "\n  control-plane audit log:")
		if err := l.Audit.WriteText(w); err != nil {
			return err
		}
	}
	if fr := d.Flight(); fr != nil {
		fmt.Fprintf(w, "\n  flight recorder: %d dump bundle(s), %d trigger(s) suppressed\n",
			len(l.Dumps), fr.Suppressed())
		if obs == nil {
			for i := range l.Dumps {
				dump := func(w io.Writer) error { return obslog.WriteDump(w, l, &l.Dumps[i]) }
				if err := indented(w, "  ", dump); err != nil {
					return err
				}
			}
		}
	}
	if c := d.Telemetry(); c != nil {
		fmt.Fprintf(w, "\n  telemetry: %d snapshots, %d alert transitions, %d health reports\n",
			len(l.Snapshots), len(l.Alerts), len(c.Health()))
		if len(l.Alerts) > 0 {
			fmt.Fprintln(w, "  alert log:")
			if err := indented(w, "    ", c.WriteAlertsText); err != nil {
				return err
			}
		}
		if hs := c.Health(); len(hs) > 0 {
			fmt.Fprintln(w, "  scheduler health (last epoch):")
			if err := indented(w, "    ", hs[len(hs)-1].WriteText); err != nil {
				return err
			}
		}
	}
	if obs != nil {
		if err := obslog.Write(obs, l); err != nil {
			return err
		}
		if err := obs.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\n  observation log written to %s (read with nexus-obs trace|blame|diff|top|prom %s)\n", obs.Name(), obs.Name())
	}
	return nil
}

// indented writes what write produces to w with prefix before each line.
func indented(w io.Writer, prefix string, write func(io.Writer) error) error {
	var b strings.Builder
	if err := write(&b); err != nil {
		return err
	}
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		if line != "" {
			if _, err := io.WriteString(w, prefix+line); err != nil {
				return err
			}
		}
	}
	return nil
}
