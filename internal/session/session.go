// Package session assigns every session of a deployment — standalone or
// query stage — a dense uint32 handle. Requests, routing tables and the
// per-session state of the frontend, the control plane, the metrics
// recorder and the tracer are indexed by handle; session ID strings appear
// only at the API, spec and observation edges, which resolve them through
// the deployment's one Table. A Table interns any strings: the tracer
// (internal/trace) keeps its span names in one too.
package session

import "slices"

// Handle names a session in its deployment's Table. Handles are dense:
// a Table of n sessions hands out 1..n, so per-session state is a slice
// indexed by handle. Handle 0 is no session (ID "").
type Handle uint32

// Table is an append-only session table: ids[h] is the ID of handle h and
// index maps each ID back to its handle. Since it only appends, a prefix of
// IDs, once read, never changes. A Table is not safe for concurrent use;
// a deployment runs on one goroutine.
type Table struct {
	ids   []string
	index map[string]Handle
}

// NewTable returns a table holding only handle 0.
func NewTable() *Table {
	return &Table{ids: []string{""}, index: map[string]Handle{"": 0}}
}

// Intern returns id's handle, assigning the next one if id is new.
func (t *Table) Intern(id string) Handle {
	h, ok := t.index[id]
	if !ok {
		h = Handle(len(t.ids))
		t.ids = append(t.ids, id)
		t.index[id] = h
	}
	return h
}

// Grow makes room for n more IDs. When n outnumbers the IDs already held
// it also rebuilds the index at the final size, so interning them grows no
// table; a smaller n leaves the index to grow as it would anyway.
func (t *Table) Grow(n int) {
	t.ids = slices.Grow(t.ids, n)
	if n > len(t.ids) {
		index := make(map[string]Handle, len(t.ids)+n)
		for h, id := range t.ids {
			index[id] = Handle(h)
		}
		t.index = index
	}
}

// Lookup returns id's handle, if it has one.
func (t *Table) Lookup(id string) (Handle, bool) {
	h, ok := t.index[id]
	return h, ok
}

// ID returns the session ID of h ("" for 0 or a handle the table never
// assigned).
func (t *Table) ID(h Handle) string {
	if int(h) >= len(t.ids) {
		return ""
	}
	return t.ids[h]
}

// Len returns one past the largest assigned handle: a slice of this length
// has a slot for every handle.
func (t *Table) Len() int { return len(t.ids) }

// IDs returns the ID of every handle, indexed by handle. The result is a
// read-only view that later interns never change.
func (t *Table) IDs() []string { return t.ids[:len(t.ids):len(t.ids)] }

// Fit returns s extended with zero values so that s[h] is in range.
func Fit[T any](s []T, h Handle) []T {
	if n := int(h) + 1; n > len(s) {
		s = append(s, make([]T, n-len(s))...)
	}
	return s
}
