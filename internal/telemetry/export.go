package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// promPrefix namespaces every exported metric.
const promPrefix = "nexus_"

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (version 0.0.4). Windows export as per-window _count/_mean/_p50/
// _p99 gauges in milliseconds.
func WritePrometheus(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	if c := s.cols; c != nil {
		nc := len(c.counters)
		writeFamilies(bw, c.counters, s.vals[:nc], "counter")
		writeFamilies(bw, c.gauges, s.vals[nc:], "gauge")
		if len(c.windows) > 0 {
			// The flattened names sort apart from the window keys.
			flat := make(map[string]float64, 4*len(c.windows))
			for i, k := range c.windows {
				fam, labels := splitKey(k)
				ws := s.wins[i]
				flat[fam+"_count"+labels] = float64(ws.Count)
				flat[fam+"_mean"+labels] = ws.MeanMS
				flat[fam+"_p50"+labels] = ws.P50MS
				flat[fam+"_p99"+labels] = ws.P99MS
			}
			keys := sortedKeys(flat)
			vals := make([]float64, len(keys))
			for i, k := range keys {
				vals[i] = flat[k]
			}
			writeFamilies(bw, keys, vals, "gauge")
		}
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
// samples, from sorted keys and their values.
func writeFamilies(w io.Writer, keys []string, values []float64, typ string) {
	lastFam := ""
	for i, k := range keys {
		fam, labels := splitKey(k)
		if fam != lastFam {
			fmt.Fprintf(w, "# TYPE %s%s %s\n", promPrefix, fam, typ)
			lastFam = fam
		}
		fmt.Fprintf(w, "%s%s%s %s\n", promPrefix, fam, labels, formatValue(values[i]))
	}
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
