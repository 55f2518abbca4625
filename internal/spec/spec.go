// Package spec defines a declarative JSON description of a Nexus
// deployment — every cluster knob (Config), sessions, and query trees with
// their arrival processes — and builds a runnable cluster.Deployment from
// it. It is the management-plane ingestion format (§5 "developers ingest
// and deploy applications and models"), and its Config is the one
// declaration of the knobs `nexus-sim` exposes as flags.
package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/globalsched"
	"nexus/internal/queryopt"
	"nexus/internal/workload"
)

// Deployment is the top-level spec document: the cluster knobs at top
// level, then the workload.
type Deployment struct {
	Config

	Sessions []Session `json:"sessions"`
	Queries  []Query   `json:"queries"`

	// Specialize declares transfer-learned variant families to register
	// before sessions reference them.
	Specialize []Specialize `json:"specialize"`
}

// Specialize declares N variants of a base catalog model, retraining the
// last `retrain` layers; variant IDs are "<base>-v<start+k>".
type Specialize struct {
	Base    string `json:"base"`
	Count   int    `json:"count"`
	Retrain int    `json:"retrain,omitempty"` // default 1
	Start   int    `json:"start,omitempty"`   // ID namespace offset
}

// Session is a standalone model session.
type Session struct {
	ID      string  `json:"id"`
	Model   string  `json:"model"`
	SLOms   float64 `json:"slo_ms"`
	Rate    float64 `json:"rate"`
	Arrival string  `json:"arrival,omitempty"` // "uniform" (default) | "poisson"
}

// Query is a dataflow query with a whole-query SLO.
type Query struct {
	Name    string  `json:"name"`
	SLOms   float64 `json:"slo_ms"`
	Rate    float64 `json:"rate"`
	Arrival string  `json:"arrival,omitempty"`
	Root    Node    `json:"root"`
}

// Node is one query stage.
type Node struct {
	Name     string `json:"name"`
	Model    string `json:"model"`
	Children []struct {
		Gamma float64 `json:"gamma"`
		Node  Node    `json:"node"`
	} `json:"children"`
}

// Parse reads one spec document from JSON; omitted knobs keep Defaults.
func Parse(r io.Reader) (*Deployment, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	d := Deployment{Config: Defaults()}
	if err := dec.Decode(&d); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing data after the document")
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}

// Validate checks the document's internal consistency.
func (d *Deployment) Validate() error {
	if err := d.Config.Validate(); err != nil {
		return err
	}
	if len(d.Sessions) == 0 && len(d.Queries) == 0 {
		return fmt.Errorf("spec: no sessions or queries")
	}
	ids := make(map[string]bool)
	for _, s := range d.Sessions {
		if s.ID == "" || s.Model == "" {
			return fmt.Errorf("spec: session needs id and model")
		}
		if ids[s.ID] {
			return fmt.Errorf("spec: duplicate session id %q", s.ID)
		}
		ids[s.ID] = true
		if s.SLOms <= 0 || s.Rate < 0 {
			return fmt.Errorf("spec: session %s needs positive slo_ms and non-negative rate", s.ID)
		}
		if err := validArrival(s.Arrival); err != nil {
			return fmt.Errorf("spec: session %s: %w", s.ID, err)
		}
	}
	names := make(map[string]bool)
	for _, q := range d.Queries {
		if q.Name == "" {
			return fmt.Errorf("spec: query needs a name")
		}
		if names[q.Name] {
			return fmt.Errorf("spec: duplicate query name %q", q.Name)
		}
		names[q.Name] = true
		if q.SLOms <= 0 || q.Rate < 0 {
			return fmt.Errorf("spec: query %s needs positive slo_ms and non-negative rate", q.Name)
		}
		if err := validArrival(q.Arrival); err != nil {
			return fmt.Errorf("spec: query %s: %w", q.Name, err)
		}
		if err := validNode(q.Root); err != nil {
			return fmt.Errorf("spec: query %s: %w", q.Name, err)
		}
	}
	for _, sp := range d.Specialize {
		if sp.Base == "" || sp.Count < 1 {
			return fmt.Errorf("spec: specialize needs base and count >= 1")
		}
	}
	return nil
}

func validArrival(a string) error {
	switch a {
	case "", "uniform", "poisson":
		return nil
	}
	return fmt.Errorf("unknown arrival %q (uniform|poisson)", a)
}

func validNode(n Node) error {
	if n.Name == "" || n.Model == "" {
		return fmt.Errorf("node needs name and model")
	}
	for _, c := range n.Children {
		if c.Gamma <= 0 {
			return fmt.Errorf("node %s: gamma must be positive", n.Name)
		}
		if err := validNode(c.Node); err != nil {
			return err
		}
	}
	return nil
}

// Build constructs a runnable deployment from the spec. It checks the
// knobs again, since flags may have overridden them after Parse.
func (d *Deployment) Build() (*cluster.Deployment, error) {
	if err := d.Config.Validate(); err != nil {
		return nil, err
	}
	dep, err := cluster.New(d.Cluster())
	if err != nil {
		return nil, err
	}
	for _, sp := range d.Specialize {
		for k := 0; k < sp.Count; k++ {
			if _, err := dep.ModelDB().Variant(sp.Base, sp.Start+k, max(sp.Retrain, 1)); err != nil {
				return nil, fmt.Errorf("spec: specialize: %w", err)
			}
		}
	}
	if err := dep.RefreshProfiles(); err != nil {
		return nil, err
	}
	for _, s := range d.Sessions {
		if err := dep.AddSession(globalsched.SessionSpec{
			ID:           s.ID,
			ModelID:      s.Model,
			SLO:          time.Duration(s.SLOms * float64(time.Millisecond)),
			ExpectedRate: s.Rate,
		}, arrival(s.Arrival, s.Rate)); err != nil {
			return nil, err
		}
	}
	for _, q := range d.Queries {
		query := &queryopt.Query{
			Name: q.Name,
			SLO:  time.Duration(q.SLOms * float64(time.Millisecond)),
			Root: buildNode(q.Root),
		}
		if err := dep.AddQuery(globalsched.QuerySpec{
			Query:        query,
			ExpectedRate: q.Rate,
		}, arrival(q.Arrival, q.Rate)); err != nil {
			return nil, err
		}
	}
	return dep, nil
}

func arrival(kind string, rate float64) workload.Process {
	switch kind {
	case "poisson":
		return workload.Poisson{Rate: rate}
	default:
		return workload.Uniform{Rate: rate}
	}
}

func buildNode(n Node) *queryopt.Node {
	out := &queryopt.Node{Name: n.Name, ModelID: n.Model}
	for _, c := range n.Children {
		out.Edges = append(out.Edges, queryopt.Edge{
			Gamma: c.Gamma,
			Child: buildNode(c.Node),
		})
	}
	return out
}
