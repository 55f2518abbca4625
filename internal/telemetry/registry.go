// Package telemetry is the live observability plane: a streaming metrics
// registry every layer publishes into (frontends, backends, the global
// scheduler), sampled on the simulation clock into deterministic
// snapshots; an alerting engine evaluating declarative rules over the
// snapshot stream (SLO burn rate, queue saturation, stragglers, backend
// flaps); per-epoch scheduler health reports ("explain" output); and
// the Prometheus text renderer. Snapshots and alerts go to disk through
// the observation log (internal/obslog), which `nexus-obs top` and
// `nexus-obs prom` read. The plane carries only virtual time.
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
	"sort"
	"strings"
	"time"

	"nexus/internal/metrics"
	"nexus/internal/trace"
)

// Key builds the canonical instrument key from a metric name and
// alternating label name/value pairs, with labels sorted by name:
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
		b.WriteString(labels[2*j+1])
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// Family returns the metric name of a key, i.e. everything before the
// label block.
func Family(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// LabelValue extracts one label's value from a canonical key, or "" when
// the label is absent.
func LabelValue(key, label string) string {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return ""
	}
	rest := key[i+1 : len(key)-1]
	for _, pair := range strings.Split(rest, ",") {
		eq := strings.IndexByte(pair, '=')
		if eq < 0 {
			continue
		}
		if pair[:eq] == label {
			return strings.Trim(pair[eq+1:], `"`)
		}
	}
	return ""
}

// Counter is a monotonically non-decreasing instrument. The nil Counter
// accepts every call and does nothing.
type Counter struct{ v float64 }

// Add increments the counter by d (negative d is ignored).
func (c *Counter) Add(d float64) {
	if c == nil || d <= 0 {
		return
	}
	c.v += d
}

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
	k := Key(name, labels...)
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge for name+labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Window returns (creating if needed) the windowed histogram for
// name+labels.
func (r *Registry) Window(name string, labels ...string) *Window {
	if r == nil {
		return nil
	}
	k := Key(name, labels...)
	w, ok := r.windows[k]
	if !ok {
		w = &Window{}
		r.windows[k] = w
	}
	return w
}

// Sample captures every instrument's current value into a Snapshot stamped
// at virtual time `at`, rotating all windows. A nil registry samples to an
// empty snapshot.
func (r *Registry) Sample(at time.Duration) Snapshot {
	s := Snapshot{
		At:       at,
		AtMS:     trace.MS(at),
		Counters: map[string]float64{},
		Gauges:   map[string]float64{},
		Windows:  map[string]WindowStats{},
	}
	if r == nil {
		return s
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, w := range r.windows {
		s.Windows[k] = w.take()
	}
	return s
}

// Snapshot is one sampled state of the registry. Map keys serialize
// sorted, so encoded snapshots are deterministic.
type Snapshot struct {
	At       time.Duration          `json:"-"`
	AtMS     float64                `json:"at_ms"`
	Counters map[string]float64     `json:"counters,omitempty"`
	Gauges   map[string]float64     `json:"gauges,omitempty"`
	Windows  map[string]WindowStats `json:"windows,omitempty"`
}

// Counter returns a counter's value in the snapshot.
func (s *Snapshot) Counter(key string) (float64, bool) {
	v, ok := s.Counters[key]
	return v, ok
}

// Gauge returns a gauge's value in the snapshot.
func (s *Snapshot) Gauge(key string) (float64, bool) {
	v, ok := s.Gauges[key]
	return v, ok
}

// Keys returns the snapshot's keys of one metric family, sorted. It scans
// counters, gauges, and windows.
func (s *Snapshot) Keys(family string) []string {
	var out []string
	for k := range s.Counters {
		if Family(k) == family {
			out = append(out, k)
		}
	}
	for k := range s.Gauges {
		if Family(k) == family {
			out = append(out, k)
		}
	}
	for k := range s.Windows {
		if Family(k) == family {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}
