// nexus-sim runs an ad-hoc simulated deployment — one of the paper's
// applications, or a declarative JSON spec — and reports serving
// statistics and the per-second load / GPU-usage / bad-rate panels of
// Figure 13.
//
//	nexus-sim -app traffic -rate 200 -gpus 16 -duration 60s
//	nexus-sim -app all -scale 0.3 -gpus 32 -system clipper
//	nexus-sim -spec deployment.json -duration 120s -seed 2 -trace-out t.json
//
// The cluster knob flags (-system, -gpus, -epoch, -shards, -retry-budget,
// ...) are derived from spec.Config, the one declaration of every knob.
// With -spec, a knob flag given on the command line overrides the file's
// key, and a key the file omits takes its spec default. Without -spec the
// run starts from the spec defaults with -gpus 16, -epoch 10s and -seed 1.
// The workload flags (-app, -rate, -scale, -rush, -duration) and output
// flags (-trace-out, -audit-out, -telemetry-out, -alerts-out,
// -telemetry-listen, -telemetry-hold, -forensics-out) apply on both paths;
// with -spec, -app adds its sessions only when given.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/forensics"
	"nexus/internal/spec"
	"nexus/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// options holds the workload and output flags.
type options struct {
	spec, app    string
	rate, scale  float64
	rush         bool
	duration     time.Duration
	traceOut     string
	auditOut     string
	telemOut     string
	alertsOut    string
	telemListen  string
	telemHold    time.Duration
	forensicsOut string
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
	fs.StringVar(&o.traceOut, "trace-out", "", "write the event trace as JSON to this file (implies tracing)")
	fs.StringVar(&o.auditOut, "audit-out", "", "write the audit log as JSON to this file (implies -audit)")
	fs.StringVar(&o.telemOut, "telemetry-out", "", "write telemetry snapshots as JSONL to this file (implies -telemetry; tail with nexus-top)")
	fs.StringVar(&o.alertsOut, "alerts-out", "", "write the telemetry alert log as JSONL to this file (implies -telemetry)")
	fs.StringVar(&o.telemListen, "telemetry-listen", "", "serve /metrics (Prometheus text), /alerts, /health on this address (implies -telemetry)")
	fs.DurationVar(&o.telemHold, "telemetry-hold", 0, "keep the telemetry endpoint up this long after the run finishes")
	fs.StringVar(&o.forensicsOut, "forensics-out", "", "write alert-triggered dump bundles as JSONL to this file (implies -forensics; read with nexus-forensics)")
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
	if o.spec == "" && o.app == "" {
		o.app = "traffic"
	}
	// Each output destination turns on the plane that fills it.
	if o.traceOut != "" && doc.TraceCapacity == 0 {
		doc.TraceCapacity = 1 << 20 // a generously sized ring
	}
	doc.Audit = doc.Audit || o.auditOut != ""
	doc.Forensics = doc.Forensics || o.forensicsOut != ""
	if (o.telemOut != "" || o.alertsOut != "" || o.telemListen != "") && doc.Telemetry == 0 {
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
	return report(stdout, d, o, label, doc.GPUs)
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

// report executes the deployment and prints the standard panels, then
// each enabled plane either to its output file or inline.
func report(w io.Writer, d *cluster.Deployment, o *options, label string, gpus int) error {
	if o.telemListen != "" && d.Telemetry() != nil {
		// Serve the live endpoint while the simulation runs: /metrics reads
		// only the mutex-published latest snapshot, so scraping is race-free.
		srv := &http.Server{Addr: o.telemListen, Handler: telemetry.Handler(d.Telemetry())}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
		fmt.Fprintf(w, "telemetry: serving /metrics on %s\n", o.telemListen)
	}
	duration := o.duration
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
	if tr := d.Tracer(); tr != nil {
		if o.traceOut != "" {
			if err := writeFile(o.traceOut, tr.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(w, "\n  trace: %d of %d events written to %s (analyze with nexus-trace)\n",
				len(tr.Events()), tr.Total(), o.traceOut)
		} else {
			fmt.Fprintf(w, "\n  trace (last %d of %d events):\n", len(tr.Events()), tr.Total())
			if err := tr.WriteText(w); err != nil {
				return err
			}
		}
	}
	if a := d.Audit(); a != nil {
		if o.auditOut != "" {
			if err := writeFile(o.auditOut, a.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(w, "  audit log written to %s\n", o.auditOut)
		} else {
			fmt.Fprintln(w, "\n  control-plane audit log:")
			if err := a.WriteText(w); err != nil {
				return err
			}
		}
	}
	if fr := d.Flight(); fr != nil {
		dumps := fr.Dumps()
		fmt.Fprintf(w, "\n  flight recorder: %d dump bundle(s), %d trigger(s) suppressed\n",
			len(dumps), fr.Suppressed())
		if o.forensicsOut != "" {
			if err := writeFile(o.forensicsOut, func(f io.Writer) error {
				return forensics.WriteDumpsJSONL(f, dumps)
			}); err != nil {
				return err
			}
			fmt.Fprintf(w, "  dumps written to %s (read with nexus-forensics -dumps %s)\n",
				o.forensicsOut, o.forensicsOut)
		} else {
			for i := range dumps {
				if err := indented(w, "  ", dumps[i].WriteText); err != nil {
					return err
				}
			}
		}
	}
	if c := d.Telemetry(); c != nil {
		fmt.Fprintf(w, "\n  telemetry: %d snapshots, %d alert transitions, %d health reports\n",
			len(c.Snapshots()), len(c.Alerts()), len(c.Health()))
		if alerts := c.Alerts(); len(alerts) > 0 {
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
		if o.telemOut != "" {
			if err := writeFile(o.telemOut, func(f io.Writer) error {
				return telemetry.WriteSnapshotsJSONL(f, c.Snapshots())
			}); err != nil {
				return err
			}
			fmt.Fprintf(w, "  snapshots written to %s (view with nexus-top -in %s)\n", o.telemOut, o.telemOut)
		}
		if o.alertsOut != "" {
			if err := writeFile(o.alertsOut, func(f io.Writer) error {
				return telemetry.WriteAlertsJSONL(f, c.Alerts())
			}); err != nil {
				return err
			}
			fmt.Fprintf(w, "  alert log written to %s\n", o.alertsOut)
		}
		if o.telemListen != "" && o.telemHold > 0 {
			fmt.Fprintf(w, "  holding %s for %v (scrape %s/metrics)\n", o.telemListen, o.telemHold, o.telemListen)
			time.Sleep(o.telemHold)
		}
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

// writeFile streams write into path, creating or truncating it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
