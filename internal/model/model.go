// Package model implements DNN model schemas for Nexus: layer chains with
// compute/size metadata, a model database, common-prefix detection, and the
// transfer-learning "specialize" operation that retrains only the last few
// layers (§2.2, §6.3).
//
// The prefix check is structural: models derived from one base read their
// shared layers from it, so those layers match by construction, and only
// the layers after them are compared field by field. The SHA-256 prefix
// chain it replaced is kept in the tests as the oracle it must agree with.
//
// Models are read-only once built: derived models read their shared
// layers through their source, and every DB Catalog returns holds the same
// base models, built once per process. No caller may mutate a catalog
// model; register a derived model instead.
//
// Models here are structural: they carry the FLOP counts, parameter sizes
// and weight identities that scheduling and prefix batching depend on, not
// numerical weights. Executing one on the simulated GPU consumes virtual
// time according to its batching profile (see internal/profiler and
// internal/gpusim).
package model

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
)

// LayerKind identifies the operator a layer computes.
type LayerKind string

// Layer kinds used by the catalog. The set is open: any string works, and
// prefix detection treats kinds opaquely.
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

// sameShape reports whether l and o have equal kind, FLOPs, parameter and
// activation sizes: all that batching them as one layer needs but equal
// weights. Name is deliberately excluded: renaming a layer must not break
// sharing.
func (l *Layer) sameShape(o *Layer) bool {
	return l.Kind == o.Kind && l.FLOPs == o.FLOPs && l.ParamBytes == o.ParamBytes &&
		l.ActBytes == o.ActBytes
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

	// sums[i] is the cost of layers 0 through shared+i. Built with the model,
	// never lazily, because shared models are read-only.
	sums []cost

	// A specialization stores no layers: its last retrain layers are those
	// of costs, the model it (or its own source) specializes, with fresh
	// weights, built on demand by Layer. Retraining keeps every layer's
	// cost, so it reads its costs from there too. costs is nil on any other
	// model.
	costs   *Model
	retrain int
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
func (m *Model) NumLayers() int { return m.shared + len(m.layers) + m.retrain }

// Layer returns layer i (0 <= i < NumLayers). It returns a copy, so no
// caller can change a prefix other models share. A retrained layer is
// built here: its source's layer with WeightsID "<id>/<kind>#<i>", where
// id names the specialization that retrained it.
func (m *Model) Layer(i int) Layer {
	l, by := m.layer(i)
	c := *l
	if by != nil {
		c.WeightsID = retrainedWeights(by.ID, l.Kind, i)
	}
	return c
}

// layer returns the stored layer that layer i of m is, in m or in the
// model it shares the layer with. When a specialization retrained layer i,
// it also returns that specialization, and the stored layer gives all but
// the weights. Callers must not change the layer.
func (m *Model) layer(i int) (l *Layer, retrainedBy *Model) {
	for {
		for i < m.shared {
			m = m.base
		}
		if m.costs == nil {
			return &m.layers[i-m.shared], retrainedBy
		}
		if retrainedBy == nil {
			retrainedBy = m
		}
		m = m.costs
	}
}

// retrainedWeights is the WeightsID specialization id gives the layer of
// the given kind it retrains at index i.
func retrainedWeights(id string, kind LayerKind, i int) string {
	return id + "/" + string(kind) + "#" + strconv.Itoa(i)
}

// isRetrainedWeights reports whether w == retrainedWeights(id, kind, i),
// without building the latter.
func isRetrainedWeights(w, id string, kind LayerKind, i int) bool {
	var buf [20]byte
	idx := strconv.AppendInt(buf[:0], int64(i), 10)
	k := len(id) + 1 + len(kind)
	return len(w) == k+1+len(idx) && w[:len(id)] == id && w[len(id)] == '/' &&
		w[len(id)+1:k] == string(kind) && w[k] == '#' && w[k+1:] == string(idx)
}

// Source returns the model a specialization keeps the structure and layer
// costs of: the first model along its chain of Specialize calls that is not
// itself a specialization. It returns nil when m is not a specialization.
func (m *Model) Source() *Model { return m.costs }

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
	if m.costs != nil {
		return m.costs.prefix(k)
	}
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

// derive returns a model with no layers of its own yet that shares the
// first k (>= 1) layers of m. If m inherits all k itself, the result shares
// them with m's base: chains stay flat.
func (m *Model) derive(id string, k int) *Model {
	s := &Model{ID: id, Task: m.Task, shared: k}
	for k <= m.shared {
		m = m.base
	}
	s.base = m
	return s
}

// Specialize models transfer learning: it returns a variant of m whose last
// retrain layers carry fresh weights (and hence fresh WeightsIDs). The
// structure is unchanged, so the first NumLayers-retrain layers still match
// the base model and remain prefix-batchable with it: the variant shares
// them. It stores only its ID, the model it reads them through and the
// retrain count: Layer builds each retrained layer from m's, with WeightsID
// "<newID>/<kind>#<index>". It shares m's layer costs too.
func Specialize(m *Model, newID string, retrain int) (*Model, error) {
	if retrain < 1 || retrain >= m.NumLayers() {
		return nil, fmt.Errorf("model %q: retrain %d out of range [1,%d)", m.ID, retrain, m.NumLayers())
	}
	s := m.derive(newID, m.NumLayers()-retrain)
	s.retrain = retrain
	s.costs = m
	if m.costs != nil {
		s.costs = m.costs
	}
	return s, nil
}

// AppendFC returns a copy of m with extra FC layers appended before output,
// used to build the "2 FC" / "3 FC" suffix variants of Figure 15. The copy
// shares every layer of m and stores only the appended layers.
func AppendFC(m *Model, newID string, extra int, units int64) *Model {
	s := m.derive(newID, m.NumLayers())
	for i := 0; i < extra; i++ {
		s.layers = append(s.layers, Layer{
			Name:       "fc_extra" + strconv.Itoa(i),
			Kind:       FC,
			FLOPs:      2 * units * units,
			ParamBytes: units * units * 4,
			ActBytes:   units * 4,
			WeightsID:  newID + "/fc_extra#" + strconv.Itoa(i),
		})
	}
	s.buildSums()
	return s
}

// CommonPrefixLen returns the number of leading layers a and b share
// (identical structure and weights). The layers both read from one model
// match by construction; only those after them are compared.
func CommonPrefixLen(a, b *Model) int {
	n := min(a.NumLayers(), b.NumLayers())
	k := min(storedTogether(a, b), n)
	for k < n && sameLayer(a, b, k) {
		k++
	}
	return k
}

// sameLayer reports whether layer i of a and layer i of b batch as one:
// equal shape (Layer.sameShape) and weights. It builds no retrained layer's
// WeightsID.
func sameLayer(a, b *Model, i int) bool {
	la, ra := a.layer(i)
	lb, rb := b.layer(i)
	if !la.sameShape(lb) {
		return false
	}
	switch {
	case ra == nil && rb == nil:
		return la.WeightsID == lb.WeightsID
	case ra != nil && rb != nil:
		// Same kind, same index: the two WeightsIDs differ only in the ID.
		return ra.ID == rb.ID
	case ra != nil:
		return isRetrainedWeights(lb.WeightsID, ra.ID, la.Kind, i)
	}
	return isRetrainedWeights(la.WeightsID, rb.ID, lb.Kind, i)
}

// storedTogether returns how many leading layers a and b read from one
// model: walking each one's base chain, where x serves a's first la layers
// and y serves b's first lb, the first model on both chains serves both
// their first min(la, lb). Chains are flat (see derive), so this is a few
// pointer comparisons.
func storedTogether(a, b *Model) int {
	for x, la := a, a.NumLayers(); x != nil; x, la = x.base, x.shared {
		for y, lb := b, b.NumLayers(); y != nil; y, lb = y.base, y.shared {
			if x == y {
				return min(la, lb)
			}
		}
	}
	return 0
}

// DB is a model database (the management plane's model store, §5).
type DB struct {
	models map[string]*Model
	order  []*Model // in registration order
}

// NewDB returns an empty model database.
func NewDB() *DB {
	return &DB{models: make(map[string]*Model)}
}

// Grow makes room for n more models. When n outnumbers the models already
// registered it also rebuilds the index at the final size, so registering
// them grows no table; a smaller n leaves the index to grow as it would.
func (db *DB) Grow(n int) {
	db.order = slices.Grow(db.order, n)
	if n > len(db.models) {
		models := make(map[string]*Model, len(db.models)+n)
		maps.Copy(models, db.models)
		db.models = models
	}
}

// Register adds a model. Re-registering an ID is an error.
func (db *DB) Register(m *Model) error {
	if _, ok := db.models[m.ID]; ok {
		return fmt.Errorf("model %q already registered", m.ID)
	}
	db.add(m)
	return nil
}

// add registers m, whose ID the caller has checked is new.
func (db *DB) add(m *Model) {
	db.models[m.ID] = m
	db.order = append(db.order, m)
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
	var buf [64]byte
	name := strconv.AppendInt(append(append(buf[:0], base...), "-v"...), int64(k), 10)
	if v, ok := db.models[string(name)]; ok {
		if own := v.NumLayers() - v.shared; own != retrain {
			return "", fmt.Errorf("model %q already registered with retrain %d, not %d", v.ID, own, retrain)
		}
		return v.ID, nil
	}
	id := string(name)
	bm, err := db.Get(base)
	if err != nil {
		return "", err
	}
	v, err := Specialize(bm, id, retrain)
	if err != nil {
		return "", err
	}
	db.add(v)
	return id, nil
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

// Since returns the models registered after the first n, in registration
// order: a caller that remembers Len can walk only what is new. The result
// is a read-only view.
func (db *DB) Since(n int) []*Model { return db.order[n:len(db.order):len(db.order)] }

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
