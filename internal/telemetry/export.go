package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
)

// promPrefix namespaces every exported metric.
const promPrefix = "nexus_"

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Windows export as per-window _count/_mean/_p50/
// _p99 gauges in milliseconds.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	writeFamilies(bw, s.Counters, "counter", "")
	writeFamilies(bw, s.Gauges, "gauge", "")
	if len(s.Windows) > 0 {
		flat := make(map[string]float64, 4*len(s.Windows))
		for k, ws := range s.Windows {
			fam, labels := splitKey(k)
			flat[fam+"_count"+labels] = float64(ws.Count)
			flat[fam+"_mean"+labels] = ws.MeanMS
			flat[fam+"_p50"+labels] = ws.P50MS
			flat[fam+"_p99"+labels] = ws.P99MS
		}
		writeFamilies(bw, flat, "gauge", "")
	}
	fmt.Fprintf(bw, "# HELP %ssnapshot_at_ms virtual time of this snapshot\n", promPrefix)
	fmt.Fprintf(bw, "# TYPE %ssnapshot_at_ms gauge\n", promPrefix)
	fmt.Fprintf(bw, "%ssnapshot_at_ms %s\n", promPrefix, formatValue(s.AtMS))
	return bw.Flush()
}

// splitKey separates a canonical key into its family and label block
// (label block includes braces, or "" when unlabeled).
func splitKey(key string) (family, labels string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			return key[:i], key[i:]
		}
	}
	return key, ""
}

// writeFamilies emits one # TYPE header per metric family, then its
// samples, all sorted.
func writeFamilies(w io.Writer, values map[string]float64, typ, help string) {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lastFam := ""
	for _, k := range keys {
		fam, labels := splitKey(k)
		if fam != lastFam {
			if help != "" {
				fmt.Fprintf(w, "# HELP %s%s %s\n", promPrefix, fam, help)
			}
			fmt.Fprintf(w, "# TYPE %s%s %s\n", promPrefix, fam, typ)
			lastFam = fam
		}
		fmt.Fprintf(w, "%s%s%s %s\n", promPrefix, fam, labels, formatValue(values[k]))
	}
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the collector over HTTP for live runs:
//
//	/metrics       — latest snapshot, Prometheus text format
//	/alerts        — alert log, plain text
//	/health        — per-epoch scheduler health reports, plain text
//	/debug/pprof/  — Go runtime profiles (CPU, heap, goroutines, ...)
//
// /metrics, /alerts and /health read only what the collector publishes
// under its mutex, so scraping a running simulation is race-free. The
// pprof routes profile the simulator process itself — the
// self-observability counterpart to the gauges SampleRuntime exports.
func Handler(c *Collector) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s, ok := c.Latest()
		if !ok {
			http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = WritePrometheus(w, &s)
	})
	mux.HandleFunc("/alerts", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = c.WriteAlertsText(w)
	})
	mux.HandleFunc("/health", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = c.WriteHealthText(w)
	})
	return mux
}
