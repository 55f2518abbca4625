// Package model implements DNN model schemas for Nexus: layer chains with
// compute/size metadata, a model database, SHA-256 prefix hashing for
// common-subgraph detection, and the transfer-learning "specialize"
// operation that retrains only the last few layers (§2.2, §6.3).
//
// Models here are structural: they carry the FLOP counts, parameter sizes
// and weight identities that scheduling and prefix batching depend on, not
// numerical weights. Executing one on the simulated GPU consumes virtual
// time according to its batching profile (see internal/profiler and
// internal/gpusim).
package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
)

// LayerKind identifies the operator a layer computes.
type LayerKind string

// Layer kinds used by the catalog. The set is open: any string works, and
// hashing treats kinds opaquely.
const (
	Input   LayerKind = "input"
	Conv    LayerKind = "conv"
	FC      LayerKind = "fc"
	Pool    LayerKind = "pool"
	BN      LayerKind = "bn"
	ReLU    LayerKind = "relu"
	Concat  LayerKind = "concat"
	Softmax LayerKind = "softmax"
	Detect  LayerKind = "detect" // detection head (SSD-style)
)

// Layer is one operator in a model's schema.
type Layer struct {
	Name       string    // human-readable, not hashed
	Kind       LayerKind // operator type
	FLOPs      int64     // compute per single input
	ParamBytes int64     // trained parameter size
	ActBytes   int64     // activation output size per input
	// WeightsID identifies the trained weights. Two layers batch together
	// only if their structure AND weights match; specialization assigns
	// fresh WeightsIDs to retrained layers (§6.3 "Prefix Batching").
	WeightsID string
}

// appendIdentity appends the layer's batching-relevant identity to buf:
// kind, FLOPs, parameter and activation sizes, and weights, with strings
// length-prefixed. Name is deliberately excluded: renaming a layer must not
// break sharing.
func (l *Layer) appendIdentity(buf []byte) []byte {
	buf = appendString(buf, string(l.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.FLOPs))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.ParamBytes))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(l.ActBytes))
	return appendString(buf, l.WeightsID)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
	return append(buf, s...)
}

// Model is a DNN schema: a chain of layers from input to output. Nexus
// treats models as opaque computations with a batching profile; the layer
// chain exists to support prefix detection and memory accounting.
type Model struct {
	ID     string  // unique within a DB
	Task   string  // e.g. "object-detection"
	Layers []Layer // layer 0 is the input layer

	// digests[i] is the rolling SHA-256 after layer i: SHA256(digests[i-1]
	// || identity of layer i), from an all-zero state. Equal digests imply
	// equal prefixes. Built lazily by buildHashes, which extends whatever
	// prefix Specialize or AppendFC inherited from the base model.
	digests [][32]byte
}

// New constructs a model and validates its schema.
func New(id, task string, layers []Layer) (*Model, error) {
	if id == "" {
		return nil, fmt.Errorf("model: empty id")
	}
	if len(layers) == 0 {
		return nil, fmt.Errorf("model %q: no layers", id)
	}
	if layers[0].Kind != Input {
		return nil, fmt.Errorf("model %q: first layer must be input, got %q", id, layers[0].Kind)
	}
	for i, l := range layers {
		if l.FLOPs < 0 || l.ParamBytes < 0 || l.ActBytes < 0 {
			return nil, fmt.Errorf("model %q: layer %d has negative size", id, i)
		}
	}
	return &Model{ID: id, Task: task, Layers: layers}, nil
}

// MustNew is New but panics on error; for catalog construction.
func MustNew(id, task string, layers []Layer) *Model {
	m, err := New(id, task, layers)
	if err != nil {
		panic(err)
	}
	return m
}

// NumLayers returns the layer count.
func (m *Model) NumLayers() int { return len(m.Layers) }

// FLOPs returns total compute per input.
func (m *Model) FLOPs() int64 {
	var sum int64
	for _, l := range m.Layers {
		sum += l.FLOPs
	}
	return sum
}

// ParamBytes returns total parameter size.
func (m *Model) ParamBytes() int64 {
	var sum int64
	for _, l := range m.Layers {
		sum += l.ParamBytes
	}
	return sum
}

// SuffixFLOPs returns the compute of layers from index k (inclusive) on.
func (m *Model) SuffixFLOPs(k int) int64 {
	var sum int64
	for _, l := range m.Layers[k:] {
		sum += l.FLOPs
	}
	return sum
}

// SuffixParamBytes returns the parameter size of layers from index k on.
func (m *Model) SuffixParamBytes(k int) int64 {
	var sum int64
	for _, l := range m.Layers[k:] {
		sum += l.ParamBytes
	}
	return sum
}

// PrefixHash returns the hash of the first k layers (1 <= k <= NumLayers).
// Equal hashes mean the two prefixes compute the same function with the
// same weights, so their executions can be batched together.
func (m *Model) PrefixHash(k int) string {
	if k < 1 || k > len(m.Layers) {
		panic(fmt.Sprintf("model %q: PrefixHash(%d) out of range [1,%d]", m.ID, k, len(m.Layers)))
	}
	m.buildHashes()
	return hex.EncodeToString(m.digests[k-1][:])
}

// buildHashes chains every layer not yet covered by m.digests into it.
func (m *Model) buildHashes() {
	n := len(m.digests)
	if n == len(m.Layers) {
		return
	}
	m.digests = slices.Grow(m.digests, len(m.Layers)-n)
	var state [32]byte
	if n > 0 {
		state = m.digests[n-1]
	}
	var scratch [128]byte
	for i := n; i < len(m.Layers); i++ {
		buf := m.Layers[i].appendIdentity(append(scratch[:0], state[:]...))
		state = sha256.Sum256(buf)
		m.digests = append(m.digests, state)
	}
}

// inheritDigests gives m the digests of the first k layers of base, which m
// shares unchanged; buildHashes chains only m's remaining layers.
func (m *Model) inheritDigests(base *Model, k int) {
	base.buildHashes()
	m.digests = make([][32]byte, k, len(m.Layers))
	copy(m.digests, base.digests[:k])
}

// Clone returns a deep copy with a new ID.
func (m *Model) Clone(newID string) *Model {
	layers := make([]Layer, len(m.Layers))
	copy(layers, m.Layers)
	return &Model{ID: newID, Task: m.Task, Layers: layers}
}

// Specialize models transfer learning: it returns a copy of m whose last
// retrain layers carry fresh weights (and hence fresh WeightsIDs). The
// structure is unchanged, so the first NumLayers-retrain layers still hash
// identically to the base model and remain prefix-batchable with it: the
// variant reuses the base's digests for them and hashes only the retrained
// layers.
func Specialize(m *Model, newID string, retrain int) (*Model, error) {
	if retrain < 1 || retrain >= m.NumLayers() {
		return nil, fmt.Errorf("model %q: retrain %d out of range [1,%d)", m.ID, retrain, m.NumLayers())
	}
	s := m.Clone(newID)
	n := len(s.Layers)
	for i := n - retrain; i < n; i++ {
		s.Layers[i].WeightsID = fmt.Sprintf("%s/%s#%d", newID, s.Layers[i].Kind, i)
	}
	s.inheritDigests(m, n-retrain)
	return s, nil
}

// AppendFC returns a copy of m with extra FC layers appended before output,
// used to build the "2 FC" / "3 FC" suffix variants of Figure 15. The copy
// reuses every digest of m and hashes only the appended layers.
func AppendFC(m *Model, newID string, extra int, units int64) *Model {
	s := m.Clone(newID)
	for i := 0; i < extra; i++ {
		s.Layers = append(s.Layers, Layer{
			Name:       fmt.Sprintf("fc_extra%d", i),
			Kind:       FC,
			FLOPs:      2 * units * units,
			ParamBytes: units * units * 4,
			ActBytes:   units * 4,
			WeightsID:  fmt.Sprintf("%s/fc_extra#%d", newID, i),
		})
	}
	s.inheritDigests(m, m.NumLayers())
	return s
}

// CommonPrefixLen returns the number of leading layers a and b share
// (identical structure and weights).
func CommonPrefixLen(a, b *Model) int {
	n := min(a.NumLayers(), b.NumLayers())
	a.buildHashes()
	b.buildHashes()
	// Binary search on the longest matching prefix: prefix hashes are
	// cumulative, so match(k) is monotone.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if a.digests[mid-1] == b.digests[mid-1] {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// DB is a model database (the management plane's model store, §5).
type DB struct {
	models map[string]*Model
}

// NewDB returns an empty model database.
func NewDB() *DB {
	return &DB{models: make(map[string]*Model)}
}

// Register adds a model. Re-registering an ID is an error.
func (db *DB) Register(m *Model) error {
	if _, ok := db.models[m.ID]; ok {
		return fmt.Errorf("model %q already registered", m.ID)
	}
	db.models[m.ID] = m
	return nil
}

// MustRegister is Register but panics on error.
func (db *DB) MustRegister(m *Model) {
	if err := db.Register(m); err != nil {
		panic(err)
	}
}

// Variant registers the specialized variant "<base>-v<k>" of base,
// retraining its last retrain layers, unless it is already registered, and
// returns its ID.
func (db *DB) Variant(base string, k, retrain int) (string, error) {
	id := fmt.Sprintf("%s-v%d", base, k)
	if _, ok := db.Lookup(id); ok {
		return id, nil
	}
	bm, err := db.Get(base)
	if err != nil {
		return "", err
	}
	v, err := Specialize(bm, id, retrain)
	if err != nil {
		return "", err
	}
	return id, db.Register(v)
}

// Lookup returns the model and whether it is registered. Unlike Get it
// builds no error on a miss, so existence checks stay cheap.
func (db *DB) Lookup(id string) (*Model, bool) {
	m, ok := db.models[id]
	return m, ok
}

// Get returns the model or an error if absent.
func (db *DB) Get(id string) (*Model, error) {
	m, ok := db.models[id]
	if !ok {
		return nil, fmt.Errorf("model %q not registered", id)
	}
	return m, nil
}

// MustGet is Get but panics on error.
func (db *DB) MustGet(id string) *Model {
	m, err := db.Get(id)
	if err != nil {
		panic(err)
	}
	return m
}

// IDs returns registered model IDs, sorted.
func (db *DB) IDs() []string {
	ids := make([]string, 0, len(db.models))
	for id := range db.models {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Len returns the number of registered models.
func (db *DB) Len() int { return len(db.models) }

// PrefixGroup is a set of models that share their first PrefixLen layers
// and can therefore execute that prefix as one batch (§6.3).
type PrefixGroup struct {
	PrefixLen int
	ModelIDs  []string // sorted
}

// PrefixGroups partitions the given model IDs into maximal groups of models
// sharing a common prefix of at least minShared layers. Models with no
// sufficiently-shared partner form singleton groups with PrefixLen equal to
// their own depth. Groups are returned in a deterministic order.
func (db *DB) PrefixGroups(ids []string, minShared int) ([]PrefixGroup, error) {
	if minShared < 1 {
		minShared = 1
	}
	models := make([]*Model, len(ids))
	for i, id := range ids {
		m, err := db.Get(id)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	type group struct {
		prefixLen int
		members   []*Model
	}
	var groups []*group
	sorted := make([]*Model, len(models))
	copy(sorted, models)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	for _, m := range sorted {
		best := -1
		bestLCP := 0
		for gi, g := range groups {
			lcp := CommonPrefixLen(g.members[0], m)
			if lcp > g.prefixLen {
				lcp = g.prefixLen
			}
			if lcp >= minShared && lcp > bestLCP {
				best, bestLCP = gi, lcp
			}
		}
		if best >= 0 {
			g := groups[best]
			g.members = append(g.members, m)
			if bestLCP < g.prefixLen {
				g.prefixLen = bestLCP
			}
		} else {
			groups = append(groups, &group{prefixLen: m.NumLayers(), members: []*Model{m}})
		}
	}
	out := make([]PrefixGroup, len(groups))
	for i, g := range groups {
		pg := PrefixGroup{PrefixLen: g.prefixLen}
		for _, m := range g.members {
			pg.ModelIDs = append(pg.ModelIDs, m.ID)
		}
		sort.Strings(pg.ModelIDs)
		out[i] = pg
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ModelIDs[0] < out[j].ModelIDs[0] })
	return out, nil
}
