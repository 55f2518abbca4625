package telemetry

import (
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"time"

	"nexus/internal/trace"
)

// columns is one version of a registry's series table: the canonical key
// of every instrument, sorted within its kind, and each family's keys
// across the kinds, sorted. A version never changes once built; a
// registry builds a new one when an instrument has been added, and every
// Snapshot points at the version it was sampled over. The nil *columns is
// the table with no series.
type columns struct {
	counters, gauges, windows []string
	families                  map[string][]string
}

// newColumns builds a table over sorted key lists (nil when all are empty).
func newColumns(counters, gauges, windows []string) *columns {
	if len(counters)+len(gauges)+len(windows) == 0 {
		return nil
	}
	c := &columns{counters: counters, gauges: gauges, windows: windows, families: map[string][]string{}}
	for _, keys := range [...][]string{counters, gauges, windows} {
		for _, k := range keys {
			f := Family(k)
			c.families[f] = append(c.families[f], k)
		}
	}
	for _, keys := range c.families {
		slices.Sort(keys)
	}
	return c
}

// row allocates one snapshot's values: counters then gauges, in column
// order, and the window summaries.
func (c *columns) row() ([]float64, []WindowStats) {
	if c == nil {
		return nil, nil
	}
	var vals []float64
	var wins []WindowStats
	if n := len(c.counters) + len(c.gauges); n > 0 {
		vals = make([]float64, n)
	}
	if n := len(c.windows); n > 0 {
		wins = make([]WindowStats, n)
	}
	return vals, wins
}

// Snapshot is one sampled state of a registry: a row of values over the
// series table version it was sampled with. It encodes as JSON objects of
// counters, gauges and windows keyed by canonical key, in sorted order, so
// encoded snapshots are deterministic.
type Snapshot struct {
	At   time.Duration
	AtMS float64

	cols *columns
	vals []float64     // counter columns, then gauge columns
	wins []WindowStats // window columns
}

// SnapshotOf builds a snapshot at virtual time at holding the given
// series.
func SnapshotOf(at time.Duration, counters, gauges map[string]float64, windows map[string]WindowStats) Snapshot {
	ck, gk, wk := sortedKeys(counters), sortedKeys(gauges), sortedKeys(windows)
	s := Snapshot{At: at, AtMS: trace.MS(at), cols: newColumns(ck, gk, wk)}
	s.vals, s.wins = s.cols.row()
	for i, k := range ck {
		s.vals[i] = counters[k]
	}
	for i, k := range gk {
		s.vals[len(ck)+i] = gauges[k]
	}
	for i, k := range wk {
		s.wins[i] = windows[k]
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// find returns the index of the key family+labels in sorted keys, without
// building that key.
func find(keys []string, family, labels string) (int, bool) {
	i := sort.Search(len(keys), func(i int) bool { return compareJoined(keys[i], family, labels) >= 0 })
	return i, i < len(keys) && compareJoined(keys[i], family, labels) == 0
}

// compareJoined compares k with family+labels.
func compareJoined(k, family, labels string) int {
	if len(k) < len(family) || k[:len(family)] != family {
		return strings.Compare(k, family)
	}
	return strings.Compare(k[len(family):], labels)
}

// counterOf returns the counter family+labels, a key split in two so a
// caller holding one series' labels can read a sibling family's.
func (s *Snapshot) counterOf(family, labels string) (float64, bool) {
	if s.cols == nil {
		return 0, false
	}
	if i, ok := find(s.cols.counters, family, labels); ok {
		return s.vals[i], true
	}
	return 0, false
}

// Counter returns a counter's value in the snapshot.
func (s *Snapshot) Counter(key string) (float64, bool) {
	return s.counterOf(key, "")
}

// Gauge returns a gauge's value in the snapshot.
func (s *Snapshot) Gauge(key string) (float64, bool) {
	if s.cols == nil {
		return 0, false
	}
	if i, ok := find(s.cols.gauges, key, ""); ok {
		return s.vals[len(s.cols.counters)+i], true
	}
	return 0, false
}

// Window returns a window's summary in the snapshot.
func (s *Snapshot) Window(key string) (WindowStats, bool) {
	if s.cols == nil {
		return WindowStats{}, false
	}
	if i, ok := find(s.cols.windows, key, ""); ok {
		return s.wins[i], true
	}
	return WindowStats{}, false
}

// Keys returns the snapshot's keys of one metric family across counters,
// gauges and windows, sorted. The list is shared by every snapshot of the
// same table version; callers must not modify it.
func (s *Snapshot) Keys(family string) []string {
	if s.cols == nil {
		return nil
	}
	return s.cols.families[family]
}

// snapshotJSON is a snapshot's wire form: encoding/json writes each map
// with its keys sorted.
type snapshotJSON struct {
	AtMS     float64                `json:"at_ms"`
	Counters map[string]float64     `json:"counters,omitempty"`
	Gauges   map[string]float64     `json:"gauges,omitempty"`
	Windows  map[string]WindowStats `json:"windows,omitempty"`
}

// MarshalJSON writes the snapshot's wire form.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	w := snapshotJSON{AtMS: s.AtMS}
	if c := s.cols; c != nil {
		nc := len(c.counters)
		w.Counters = byKey(c.counters, s.vals[:nc])
		w.Gauges = byKey(c.gauges, s.vals[nc:])
		w.Windows = byKey(c.windows, s.wins)
	}
	return json.Marshal(w)
}

// byKey maps keys to their values.
func byKey[V any](keys []string, vals []V) map[string]V {
	m := make(map[string]V, len(keys))
	for i, k := range keys {
		m[k] = vals[i]
	}
	return m
}

// UnmarshalJSON reads the wire form. The decoded columns are in sorted
// order, so a decoded snapshot equals the sampled one it was written from.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var w snapshotJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*s = SnapshotOf(trace.FromMS(w.AtMS), w.Counters, w.Gauges, w.Windows)
	s.AtMS = w.AtMS
	return nil
}
