// Package telemetry is the live observability plane: a streaming metrics
// registry every layer publishes into (frontends, backends, the global
// scheduler), sampled on the simulation clock into deterministic
// snapshots; a fixed set of four alert rules evaluated over that stream
// after every sample (SLO burn rate, queue saturation, stragglers, backend
// flaps; their thresholds are constants in alerts.go); per-epoch scheduler
// health reports ("explain" output); and the Prometheus text renderer.
// Snapshots and alerts go to disk through the observation log
// (internal/obslog), which `nexus-obs top` and `nexus-obs prom` read. The
// plane carries only virtual time.
//
// Like the lifecycle Tracer, the whole plane follows the nil-no-op
// discipline: a nil Collector/Registry/instrument accepts every call and
// does nothing, so deployments without telemetry pay nothing and stay
// byte-identical to their goldens. Sampling is pull-based — the cluster
// reads counters the simulation already maintains — so even enabled
// telemetry never perturbs data-plane event order.
package telemetry

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"nexus/internal/metrics"
	"nexus/internal/trace"
)

// Key builds the canonical instrument key from a metric name and
// alternating label name/value pairs, with labels sorted by name and values
// escaped as the Prometheus text format escapes them (backslash, double
// quote and newline):
//
//	Key("queue_depth", "backend", "be0") == `queue_depth{backend="be0"}`
//
// Canonical keys make snapshot maps, the observation log, and Prometheus
// exposition all agree on identity without a parsing layer.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list for %s", name))
	}
	n := len(labels) / 2
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, j := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[2*j])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(labels[2*j+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper and labelUnescaper map a label value to and from its
// escaped form in a key.
var (
	labelEscaper   = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	labelUnescaper = strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
)

// Family returns the metric name of a key, i.e. everything before the
// label block.
func Family(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// LabelValue extracts one label's unescaped value from a canonical key, or
// "" when the label is absent.
func LabelValue(key, label string) string {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return ""
	}
	rest := key[i+1:]
	for {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 || eq+1 == len(rest) || rest[eq+1] != '"' {
			return ""
		}
		// The value runs to the first quote no backslash escapes.
		end, escaped := eq+2, false
		for ; end < len(rest) && rest[end] != '"'; end++ {
			if rest[end] == '\\' {
				end++
				escaped = true
			}
		}
		if end >= len(rest) {
			return ""
		}
		if rest[:eq] == label {
			v := rest[eq+2 : end]
			if escaped {
				v = labelUnescaper.Replace(v)
			}
			return v
		}
		if rest = rest[end+1:]; len(rest) == 0 || rest[0] != ',' {
			return ""
		}
		rest = rest[1:]
	}
}

// Counter is a monotonically non-decreasing instrument. The nil Counter
// accepts every call and does nothing.
type Counter struct{ v float64 }

// Set raises the counter to v if v is larger — the pull-based idiom for
// mirroring a cumulative count the simulation already maintains.
func (c *Counter) Set(v float64) {
	if c == nil || v <= c.v {
		return
	}
	c.v = v
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is an instrument whose value can move both ways. The nil Gauge
// accepts every call and does nothing.
type Gauge struct{ v float64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Window is a tumbling-window latency histogram reusing the log-bucketed
// metrics.Histogram: observations accumulate until the next registry
// sample, which summarizes and clears them. The nil Window accepts every
// call and does nothing.
type Window struct {
	h metrics.Histogram
	// Exemplar state: the request ID behind the window's max observation,
	// only populated via ObserveExemplar (forensics wiring) so plain
	// deployments keep byte-identical snapshot streams.
	exMax time.Duration
	exID  uint64
	exSet bool
}

// Observe records one duration into the current window.
func (w *Window) Observe(d time.Duration) {
	if w == nil {
		return
	}
	w.h.Record(d)
}

// ObserveExemplar records one duration and tags it with the request ID it
// came from; the window's summary then carries the ID of its worst
// observation, linking a hot histogram cell to a concrete trace span.
func (w *Window) ObserveExemplar(d time.Duration, reqID uint64) {
	if w == nil {
		return
	}
	w.h.Record(d)
	if !w.exSet || d > w.exMax {
		w.exMax, w.exID, w.exSet = d, reqID, true
	}
}

// take summarizes and resets the current window.
func (w *Window) take() WindowStats {
	s := WindowStats{
		Count:  w.h.Count(),
		MeanMS: trace.MS(w.h.Mean()),
		P50MS:  trace.MS(w.h.Quantile(0.5)),
		P99MS:  trace.MS(w.h.Quantile(0.99)),
		MaxMS:  trace.MS(w.h.Max()),
	}
	if w.exSet {
		s.ExemplarID = w.exID
		w.exMax, w.exID, w.exSet = 0, 0, false
	}
	w.h.Reset()
	return s
}

// WindowStats is one window's summary, in export milliseconds. ExemplarID,
// when present, is the request ID of the window's max observation.
type WindowStats struct {
	Count      uint64  `json:"count"`
	MeanMS     float64 `json:"mean_ms"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	MaxMS      float64 `json:"max_ms"`
	ExemplarID uint64  `json:"exemplar_req,omitempty"`
}

// Registry holds the live instruments, keyed canonically. Instruments are
// created on first use and persist for the run, so snapshot key sets are
// stable. The nil Registry hands out nil instruments, which no-op.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	windows  map[string]*Window

	// cols is the series table the next sample writes its row over, and
	// cs, gs and ws are its instruments in column order. Adding an
	// instrument marks it stale; the next sample builds a new version, so
	// earlier snapshots keep the version they were sampled over.
	cols  *columns
	stale bool
	cs    []*Counter
	gs    []*Gauge
	ws    []*Window
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		windows:  make(map[string]*Window),
	}
}

// Counter returns (creating if needed) the counter for name+labels.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return instrument(r, r.counters, Key(name, labels...))
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	return instrument(r, r.gauges, Key(name, labels...))
}

// Window returns (creating if needed) the windowed histogram for
// name+labels.
func (r *Registry) Window(name string, labels ...string) *Window {
	if r == nil {
		return nil
	}
	return instrument(r, r.windows, Key(name, labels...))
}

// instrument returns the instrument at key in m, adding a new one (and
// marking the series table stale) when there is none.
func instrument[T any](r *Registry, m map[string]*T, key string) *T {
	v, ok := m[key]
	if !ok {
		v = new(T)
		m[key] = v
		r.stale = true
	}
	return v
}

// Sample captures every instrument's current value into a Snapshot stamped
// at virtual time `at`, rotating all windows. Once no instrument has been
// added since the previous sample, it allocates only the snapshot's row.
// A nil registry samples to an empty snapshot.
func (r *Registry) Sample(at time.Duration) Snapshot {
	s := Snapshot{At: at, AtMS: trace.MS(at)}
	if r == nil {
		return s
	}
	if r.stale {
		r.rebuild()
	}
	s.cols = r.cols
	s.vals, s.wins = r.cols.row()
	for i, c := range r.cs {
		s.vals[i] = c.v
	}
	for i, g := range r.gs {
		s.vals[len(r.cs)+i] = g.v
	}
	for i, w := range r.ws {
		s.wins[i] = w.take()
	}
	return s
}

// rebuild builds a new version of the series table over every instrument.
func (r *Registry) rebuild() {
	var ck, gk, wk []string
	ck, r.cs = inOrder(r.counters, r.cs[:0])
	gk, r.gs = inOrder(r.gauges, r.gs[:0])
	wk, r.ws = inOrder(r.windows, r.ws[:0])
	r.cols = newColumns(ck, gk, wk)
	r.stale = false
}

// inOrder returns m's keys, sorted, and its values in that order, appended
// to vals.
func inOrder[T any](m map[string]*T, vals []*T) ([]string, []*T) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		vals = append(vals, m[k])
	}
	return keys, vals
}
