package cluster

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/obslog"
	"nexus/internal/queryopt"
	"nexus/internal/session"
)

// TestDeploymentSessionTable: a deployment gives every session one handle
// in its table — standalone sessions at AddSession, each query stage at
// AddQuery — every handle resolves back to its ID, and requests reach the
// recorder and the trace through those handles. Handles never reach an
// output: every session the observation log names is a registered ID.
func TestDeploymentSessionTable(t *testing.T) {
	d, err := New(Config{System: Nexus, Features: AllFeatures(), GPUs: 8, Seed: 3,
		Epoch: 10 * time.Second, TraceCapacity: 1 << 14, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	standalone := []string{"game-0", "game-1"}
	for _, id := range standalone {
		if err := d.AddSession(globalsched.SessionSpec{
			ID: id, ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 50,
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	q := &queryopt.Query{
		Name: "traffic", SLO: 400 * time.Millisecond,
		Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
			{Gamma: 2, Child: &queryopt.Node{Name: "car", ModelID: model.GoogLeNetCar}},
		}},
	}
	if err := d.AddQuery(globalsched.QuerySpec{Query: q, ExpectedRate: 20}, nil); err != nil {
		t.Fatal(err)
	}
	ids := append(standalone, "traffic/det", "traffic/car")
	if d.names.Len() != len(ids)+1 {
		t.Fatalf("table holds %d handles, want %d sessions plus handle 0", d.names.Len(), len(ids)+1)
	}
	for i, id := range ids {
		h, ok := d.names.Lookup(id)
		if !ok || h != session.Handle(i+1) || d.names.ID(h) != id {
			t.Fatalf("session %s: handle %d (found %v), resolves to %q", id, h, ok, d.names.ID(h))
		}
	}
	if _, err := d.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if d.Recorder.Session(id).Sent == 0 {
			t.Fatalf("session %s recorded no requests", id)
		}
	}
	known := map[string]bool{"": true}
	for _, id := range ids {
		known[id] = true
	}
	events := d.Tracer().Events()
	if len(events) == 0 {
		t.Fatal("no spans recorded")
	}
	for _, e := range events {
		if !known[e.Session] {
			t.Fatalf("span names unknown session %q", e.Session)
		}
	}
	var buf bytes.Buffer
	if err := obslog.Write(&buf, d.ObsLog()); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	spans := 0
	for sc.Scan() {
		var rec struct {
			Kind string          `json:"kind"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Kind != "span" {
			continue
		}
		var span map[string]any
		if err := json.Unmarshal(rec.Data, &span); err != nil {
			t.Fatal(err)
		}
		spans++
		if s, ok := span["session"]; ok {
			if id, isString := s.(string); !isString || !known[id] {
				t.Fatalf("log span session %v is not a registered session ID", s)
			}
		}
	}
	if spans != len(events) {
		t.Fatalf("log holds %d spans, tracer %d", spans, len(events))
	}
}
