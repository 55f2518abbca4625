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
	ID   string // unique within a DB
	Task string // e.g. "object-detection"

	// A derived model (Specialize, AppendFC) reads its first shared layers
	// through base and stores only the rest, so it costs O(its suffix).
	base   *Model
	shared int
	layers []Layer // layers from index shared on; layer 0 is the input

	// digests[i] is the rolling SHA-256 after layer shared+i, from an
	// all-zero state: equal digests imply equal prefixes. Built lazily, or
	// by derive before anything shares them, so shared digests are read-only.
	digests [][32]byte

	// sums[i] is the cost of layers 0 through shared+i. Built with the model,
	// never lazily, because shared models are read-only.
	sums []cost
}

// cost is a running total of layer costs.
type cost struct{ flops, params int64 }

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
	m := &Model{ID: id, Task: task, layers: layers}
	m.buildSums()
	return m, nil
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
func (m *Model) NumLayers() int { return m.shared + len(m.layers) }

// Layer returns layer i (0 <= i < NumLayers). It returns a copy, so no
// caller can change a prefix other models share.
func (m *Model) Layer(i int) Layer {
	if i < m.shared {
		return m.base.Layer(i)
	}
	return m.layers[i-m.shared]
}

// FLOPs returns total compute per input.
func (m *Model) FLOPs() int64 { return m.SuffixFLOPs(0) }

// ParamBytes returns total parameter size.
func (m *Model) ParamBytes() int64 { return m.SuffixParamBytes(0) }

// SuffixFLOPs returns the compute of layers from index k (inclusive) on.
func (m *Model) SuffixFLOPs(k int) int64 {
	return m.prefix(m.NumLayers()).flops - m.prefix(k).flops
}

// SuffixParamBytes returns the parameter size of layers from index k on.
func (m *Model) SuffixParamBytes(k int) int64 {
	return m.prefix(m.NumLayers()).params - m.prefix(k).params
}

// prefix returns the cost of the first k layers; k past the last layer
// counts them all.
func (m *Model) prefix(k int) cost {
	k = min(k, m.NumLayers())
	switch {
	case k <= 0:
		return cost{}
	case k <= m.shared:
		return m.base.prefix(k)
	}
	return m.sums[k-m.shared-1]
}

// buildSums fills m.sums once m's own layers are in place.
func (m *Model) buildSums() {
	run := m.prefix(m.shared)
	m.sums = make([]cost, len(m.layers))
	for i := range m.layers {
		run.flops += m.layers[i].FLOPs
		run.params += m.layers[i].ParamBytes
		m.sums[i] = run
	}
}

// PrefixHash returns the hash of the first k layers (1 <= k <= NumLayers).
// Equal hashes mean the two prefixes compute the same function with the
// same weights, so their executions can be batched together.
func (m *Model) PrefixHash(k int) string {
	if k < 1 || k > m.NumLayers() {
		panic(fmt.Sprintf("model %q: PrefixHash(%d) out of range [1,%d]", m.ID, k, m.NumLayers()))
	}
	m.buildHashes()
	d := m.digest(k - 1)
	return hex.EncodeToString(d[:])
}

// digest returns the digest after layer i; m's hashes must be built.
func (m *Model) digest(i int) [32]byte {
	if i < m.shared {
		return m.base.digest(i)
	}
	return m.digests[i-m.shared]
}

// buildHashes chains m's own layers onto the digest of its shared prefix.
func (m *Model) buildHashes() {
	if len(m.digests) == len(m.layers) {
		return
	}
	var state [32]byte
	if m.shared > 0 {
		state = m.base.digest(m.shared - 1)
	}
	digests := make([][32]byte, len(m.layers))
	var scratch [128]byte
	for i := range m.layers {
		buf := m.layers[i].appendIdentity(append(scratch[:0], state[:]...))
		state = sha256.Sum256(buf)
		digests[i] = state
	}
	m.digests = digests
}

// derive returns a model with no layers of its own yet that shares the
// first k (>= 1) layers of m, whose digests it builds first. If m inherits
// all k itself, the result shares them with m's base: chains stay flat.
func (m *Model) derive(id string, k int) *Model {
	m.buildHashes()
	s := &Model{ID: id, Task: m.Task, shared: k}
	for k <= m.shared {
		m = m.base
	}
	s.base = m
	return s
}

// Specialize models transfer learning: it returns a variant of m whose last
// retrain layers carry fresh weights (and hence fresh WeightsIDs). The
// structure is unchanged, so the first NumLayers-retrain layers still hash
// identically to the base model and remain prefix-batchable with it: the
// variant shares them, and stores and hashes only the retrained layers.
func Specialize(m *Model, newID string, retrain int) (*Model, error) {
	if retrain < 1 || retrain >= m.NumLayers() {
		return nil, fmt.Errorf("model %q: retrain %d out of range [1,%d)", m.ID, retrain, m.NumLayers())
	}
	s := m.derive(newID, m.NumLayers()-retrain)
	s.layers = make([]Layer, retrain)
	for i := range s.layers {
		l := m.Layer(s.shared + i)
		l.WeightsID = fmt.Sprintf("%s/%s#%d", newID, l.Kind, s.shared+i)
		s.layers[i] = l
	}
	s.buildSums()
	return s, nil
}

// AppendFC returns a copy of m with extra FC layers appended before output,
// used to build the "2 FC" / "3 FC" suffix variants of Figure 15. The copy
// shares every layer of m and stores and hashes only the appended layers.
func AppendFC(m *Model, newID string, extra int, units int64) *Model {
	s := m.derive(newID, m.NumLayers())
	for i := 0; i < extra; i++ {
		s.layers = append(s.layers, Layer{
			Name:       fmt.Sprintf("fc_extra%d", i),
			Kind:       FC,
			FLOPs:      2 * units * units,
			ParamBytes: units * units * 4,
			ActBytes:   units * 4,
			WeightsID:  fmt.Sprintf("%s/fc_extra#%d", newID, i),
		})
	}
	s.buildSums()
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
		if a.digest(mid-1) == b.digest(mid-1) {
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
	order  []string // IDs in registration order
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
	db.order = append(db.order, m.ID)
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
// returns its ID. A registered variant that retrains a different number of
// layers is an error.
func (db *DB) Variant(base string, k, retrain int) (string, error) {
	id := fmt.Sprintf("%s-v%d", base, k)
	if v, ok := db.Lookup(id); ok {
		if own := len(v.layers); own != retrain {
			return "", fmt.Errorf("model %q already registered with retrain %d, not %d", id, own, retrain)
		}
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

// Since returns the IDs of the models registered after the first n, in
// registration order: a caller that remembers Len can walk only what is
// new.
func (db *DB) Since(n int) []string { return db.order[n:] }

// SharedPrefix returns how many leading layers all the distinct models
// among ids share, so they can execute that prefix as one batch (§6.3); 0
// when ids name fewer than two distinct models. Prefix equality at a given
// length is an equivalence, so comparing every model against the first
// answers for all pairs, in any order.
func (db *DB) SharedPrefix(ids []string) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	first, err := db.Get(ids[0])
	if err != nil {
		return 0, err
	}
	shared, distinct := first.NumLayers(), false
	for _, id := range ids[1:] {
		m, err := db.Get(id)
		if err != nil {
			return 0, err
		}
		if id != first.ID {
			distinct = true
			shared = min(shared, CommonPrefixLen(first, m))
		}
	}
	if !distinct {
		return 0, nil
	}
	return shared, nil
}
