// nexus-sim runs an ad-hoc simulated deployment — one of the paper's
// applications, or a declarative JSON spec — and reports serving
// statistics and the per-second load / GPU-usage / bad-rate panels of
// Figure 13.
//
//	nexus-sim -app traffic -rate 200 -gpus 16 -duration 60s
//	nexus-sim -app all -scale 0.3 -gpus 32 -system clipper
//	nexus-sim -spec deployment.json -duration 120s
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/forensics"
	"nexus/internal/spec"
	"nexus/internal/telemetry"
)

func main() {
	system := flag.String("system", "nexus", "nexus | nexus-parallel | clipper | tfserving")
	app := flag.String("app", "traffic", "game | traffic | dance | bb | bike | amber | logo | all")
	gpus := flag.Int("gpus", 16, "GPU pool size")
	rate := flag.Float64("rate", 100, "offered request/query rate for the app")
	scale := flag.Float64("scale", 0.2, "workload scale for -app all")
	duration := flag.Duration("duration", 60*time.Second, "measured virtual time")
	epoch := flag.Duration("epoch", 10*time.Second, "control-plane epoch")
	seed := flag.Int64("seed", 1, "workload seed")
	fixed := flag.Bool("fixed", false, "treat the pool as a fixed cluster (spread spare GPUs)")
	rush := flag.Bool("rush", false, "rush-hour traffic (higher per-frame fan-out)")
	specPath := flag.String("spec", "", "JSON deployment spec (overrides -app/-system/-gpus)")
	traceN := flag.Int("trace", 0, "record and print the last N request lifecycle events")
	traceOut := flag.String("trace-out", "", "write the event trace as JSON to this file (implies tracing)")
	auditOn := flag.Bool("audit", false, "keep and print the control-plane audit log")
	auditOut := flag.String("audit-out", "", "write the audit log as JSON to this file (implies -audit)")
	deferDrops := flag.Bool("defer", false, "serve would-be-dropped requests late at low priority (§5 alternative)")
	telemInterval := flag.Duration("telemetry", 0, "live telemetry sampling interval (0 = off)")
	telemOut := flag.String("telemetry-out", "", "write telemetry snapshots as JSONL to this file (implies -telemetry; tail with nexus-top)")
	alertsOut := flag.String("alerts-out", "", "write the telemetry alert log as JSONL to this file (implies -telemetry)")
	telemListen := flag.String("telemetry-listen", "", "serve /metrics (Prometheus text), /alerts, /health on this address (implies -telemetry)")
	telemHold := flag.Duration("telemetry-hold", 0, "keep the telemetry endpoint up this long after the run finishes")
	wallTimings := flag.Bool("telemetry-wall", false, "measure real plan wall time (nondeterministic; needs -telemetry)")
	shards := flag.Int("shards", 0, "partition epoch planning across N parallel shards (0 and 1 = one unpartitioned shard)")
	planHyst := flag.Float64("plan-hysteresis", 0, "relative rate band within which a quiet shard skips re-planning (0 = off)")
	deltaRouting := flag.Bool("delta-routing", false, "push routing-table updates to frontends as per-session deltas")
	leaseTTL := flag.Duration("lease-ttl", 0, "routing-table lease TTL on each frontend (0 = no leases)")
	serveStale := flag.Bool("serve-stale", false, "keep routing on an expired lease instead of dropping (needs -lease-ttl)")
	retryBudget := flag.Int("retry-budget", 0, "exponential-backoff dispatch retries per request (0 = retry-once semantics off)")
	breakerN := flag.Int("breaker", 0, "consecutive dispatch failures that open a backend's circuit breaker (0 = off)")
	breakerCool := flag.Duration("breaker-cooloff", time.Second, "open-breaker cooloff before a half-open probe (needs -breaker)")
	recoveryCap := flag.Int("recovery-cap", 0, "max per-session route changes per post-outage push (needs -delta-routing; 0 = uncapped)")
	forensicsOn := flag.Bool("forensics", false, "arm the flight recorder (implies tracing, -audit, and -telemetry)")
	forensicsOut := flag.String("forensics-out", "", "write alert-triggered dump bundles as JSONL to this file (implies -forensics; read with nexus-forensics)")
	forensicsWindow := flag.Duration("forensics-window", 0, "capture horizon before each anomaly (0 = 5s; needs -forensics)")
	selfObs := flag.Bool("telemetry-self", false, "export runtime self-observability gauges (goroutines, heap, GC, ring/arena occupancy; nondeterministic, needs -telemetry)")
	flag.Parse()

	// -trace-out without -trace records into a generously sized ring.
	if *traceOut != "" && *traceN == 0 {
		*traceN = 1 << 20
	}
	if *auditOut != "" {
		*auditOn = true
	}
	if *forensicsOut != "" || *forensicsWindow > 0 {
		*forensicsOn = true
	}
	if (*telemOut != "" || *alertsOut != "" || *telemListen != "") && *telemInterval == 0 {
		*telemInterval = telemetry.DefaultInterval
	}
	var telemCfg *telemetry.Config
	if *telemInterval > 0 {
		telemCfg = &telemetry.Config{Interval: *telemInterval, WallTimings: *wallTimings, SelfObserve: *selfObs}
	}
	var forensicsCfg *forensics.Config
	if *forensicsOn {
		forensicsCfg = &forensics.Config{Window: *forensicsWindow}
	}

	tOpts := telemetryOpts{
		out: *telemOut, alerts: *alertsOut, listen: *telemListen, hold: *telemHold,
		forensics: *forensicsOut,
	}

	var d *cluster.Deployment
	var err error
	if *specPath != "" {
		f, ferr := os.Open(*specPath)
		if ferr != nil {
			log.Fatal(ferr)
		}
		doc, perr := spec.Parse(f)
		f.Close()
		if perr != nil {
			log.Fatal(perr)
		}
		d, err = doc.Build()
		if err != nil {
			log.Fatal(err)
		}
		if telemCfg != nil {
			fmt.Fprintln(os.Stderr, "nexus-sim: -telemetry* flags are ignored with -spec (enable telemetry in the spec builder)")
		}
		runAndReport(d, *duration, *specPath, d.Pool.Capacity(), *traceOut, *auditOut, telemetryOpts{})
		return
	}
	d, err = cluster.New(cluster.Config{
		System:         cluster.System(*system),
		Features:       cluster.AllFeatures(),
		GPUs:           *gpus,
		Seed:           *seed,
		Epoch:          *epoch,
		FixedCluster:   *fixed,
		TraceCapacity:  *traceN,
		Audit:          *auditOn,
		DeferDropped:   *deferDrops,
		Telemetry:      telemCfg,
		PlannerShards:  *shards,
		PlanHysteresis: *planHyst,
		DeltaRouting:   *deltaRouting,
		Forensics:      forensicsCfg,

		RouteLeaseTTL:           *leaseTTL,
		ServeStale:              *serveStale,
		RetryBudget:             *retryBudget,
		BreakerThreshold:        *breakerN,
		BreakerCooloff:          *breakerCool,
		RecoveryMaxRouteChanges: *recoveryCap,
	})
	if err != nil {
		log.Fatal(err)
	}
	var builders []apps.Builder
	switch *app {
	case "game":
		builders = append(builders, apps.Game(20, *rate/7))
	case "traffic":
		builders = append(builders, apps.Traffic(20, *rate/20, *rush))
	case "dance":
		builders = append(builders, apps.Dance(*rate))
	case "bb":
		builders = append(builders, apps.Billboard(*rate))
	case "bike":
		builders = append(builders, apps.Bike(*rate))
	case "amber":
		builders = append(builders, apps.Amber(*rate))
	case "logo":
		builders = append(builders, apps.Logo(*rate))
	case "all":
		builders = apps.All(*scale)
	default:
		log.Fatalf("unknown app %q", *app)
	}
	for _, b := range builders {
		if _, err := apps.Deploy(d, b); err != nil {
			log.Fatal(err)
		}
	}
	runAndReport(d, *duration, fmt.Sprintf("%s/%s", *system, *app), *gpus, *traceOut, *auditOut, tOpts)
}

// telemetryOpts bundles the telemetry output destinations.
type telemetryOpts struct {
	out       string // snapshot JSONL path
	alerts    string // alert log JSONL path
	listen    string // HTTP address for live Prometheus scraping
	hold      time.Duration
	forensics string // flight-recorder dump JSONL path
}

// runAndReport executes the deployment and prints the standard panels.
func runAndReport(d *cluster.Deployment, duration time.Duration, label string, gpus int,
	traceOut, auditOut string, tOpts telemetryOpts) {
	if tOpts.listen != "" && d.Telemetry() != nil {
		// Serve the live endpoint while the simulation runs: /metrics reads
		// only the mutex-published latest snapshot, so scraping is race-free.
		srv := &http.Server{Addr: tOpts.listen, Handler: telemetry.Handler(d.Telemetry())}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Fatal(err)
			}
		}()
		fmt.Printf("telemetry: serving /metrics on %s\n", tOpts.listen)
	}
	bad, err := d.Run(duration)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("nexus-sim: %s for %v on %d GPUs\n", label, duration, gpus)
	fmt.Printf("  bad rate:     %.2f%%\n", 100*bad)
	fmt.Printf("  goodput:      %.1f req/s\n", d.Goodput(duration))
	fmt.Printf("  GPUs in use:  %.1f (avg)\n", d.AvgGPUsUsed())
	fmt.Printf("  unroutable:   %d\n", d.Unroutable())
	fmt.Println("\n  per-session:")
	for _, sid := range d.Recorder.SessionIDs() {
		s := d.Recorder.Session(sid)
		if s.Sent == 0 {
			continue
		}
		fmt.Printf("    %-22s sent=%7d good=%7d dropped=%5d late=%5d p50=%-10v p99=%v\n",
			sid, s.Sent, s.Good(), s.Dropped, s.Missed,
			s.Latency.Quantile(0.5), s.Latency.Quantile(0.99))
	}
	fmt.Println("\n  timeline (10s buckets): offered r/s | GPUs | bad%")
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
		fmt.Printf("    t=%3ds  %8.1f | %5.1f | %5.2f%%\n",
			(i+1)*step, offered/float64(step), g/float64(step), badPct)
	}
	if tr := d.Tracer(); tr != nil {
		if traceOut != "" {
			if err := writeFile(traceOut, tr.WriteJSON); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n  trace: %d of %d events written to %s (analyze with nexus-trace)\n",
				len(tr.Events()), tr.Total(), traceOut)
		} else {
			fmt.Printf("\n  trace (last %d of %d events):\n", len(tr.Events()), tr.Total())
			if err := tr.WriteText(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}
	if a := d.Audit(); a != nil {
		if auditOut != "" {
			if err := writeFile(auditOut, a.WriteJSON); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  audit log written to %s\n", auditOut)
		} else {
			fmt.Println("\n  control-plane audit log:")
			if err := a.WriteText(os.Stdout); err != nil {
				log.Fatal(err)
			}
		}
	}
	if fr := d.Flight(); fr != nil {
		dumps := fr.Dumps()
		fmt.Printf("\n  flight recorder: %d dump bundle(s), %d trigger(s) suppressed\n",
			len(dumps), fr.Suppressed())
		if tOpts.forensics != "" {
			if err := writeFile(tOpts.forensics, func(w io.Writer) error {
				return forensics.WriteDumpsJSONL(w, dumps)
			}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  dumps written to %s (read with nexus-forensics -dumps %s)\n",
				tOpts.forensics, tOpts.forensics)
		} else {
			for i := range dumps {
				if err := dumps[i].WriteText(prefixed(os.Stdout, "  ")); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	if c := d.Telemetry(); c != nil {
		fmt.Printf("\n  telemetry: %d snapshots, %d alert transitions, %d health reports\n",
			len(c.Snapshots()), len(c.Alerts()), len(c.Health()))
		if alerts := c.Alerts(); len(alerts) > 0 {
			fmt.Println("  alert log:")
			if err := c.WriteAlertsText(prefixed(os.Stdout, "    ")); err != nil {
				log.Fatal(err)
			}
		}
		if hs := c.Health(); len(hs) > 0 {
			fmt.Println("  scheduler health (last epoch):")
			if err := hs[len(hs)-1].WriteText(prefixed(os.Stdout, "    ")); err != nil {
				log.Fatal(err)
			}
		}
		if tOpts.out != "" {
			if err := writeFile(tOpts.out, func(w io.Writer) error {
				return telemetry.WriteSnapshotsJSONL(w, c.Snapshots())
			}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  snapshots written to %s (view with nexus-top -in %s)\n", tOpts.out, tOpts.out)
		}
		if tOpts.alerts != "" {
			if err := writeFile(tOpts.alerts, func(w io.Writer) error {
				return telemetry.WriteAlertsJSONL(w, c.Alerts())
			}); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  alert log written to %s\n", tOpts.alerts)
		}
		if tOpts.listen != "" && tOpts.hold > 0 {
			fmt.Printf("  holding %s for %v (scrape %s/metrics)\n", tOpts.listen, tOpts.hold, tOpts.listen)
			time.Sleep(tOpts.hold)
		}
	}
}

// prefixed returns a writer that indents every line it forwards.
func prefixed(w io.Writer, prefix string) io.Writer {
	return &prefixWriter{w: w, prefix: []byte(prefix), atLineStart: true}
}

type prefixWriter struct {
	w           io.Writer
	prefix      []byte
	atLineStart bool
}

func (p *prefixWriter) Write(b []byte) (int, error) {
	n := 0
	for len(b) > 0 {
		if p.atLineStart {
			if _, err := p.w.Write(p.prefix); err != nil {
				return n, err
			}
			p.atLineStart = false
		}
		i := 0
		for i < len(b) && b[i] != '\n' {
			i++
		}
		if i < len(b) {
			i++ // include the newline
			p.atLineStart = true
		}
		m, err := p.w.Write(b[:i])
		n += m
		if err != nil {
			return n, err
		}
		b = b[i:]
	}
	return n, nil
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
