package cluster

import (
	"testing"
	"time"

	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/queryopt"
	"nexus/internal/workload"
)

// TestStartQueryAllocs checks that a warm deployment reuses its query
// instances: starting a query and running it to completion allocates
// nothing once a finished instance is on the free list.
func TestStartQueryAllocs(t *testing.T) {
	d, err := New(Config{System: Nexus, Features: AllFeatures(), GPUs: 8, Seed: 3, Epoch: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	q := &queryopt.Query{
		Name: "traffic", SLO: 400 * time.Millisecond,
		Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
			{Gamma: 2, Child: &queryopt.Node{Name: "car", ModelID: model.GoogLeNetCar}},
			{Gamma: 0.5, Child: &queryopt.Node{Name: "face", ModelID: model.VGGFace}},
		}},
	}
	if err := d.AddQuery(globalsched.QuerySpec{Query: q, ExpectedRate: 40}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	qs := d.QueryStats("traffic")
	one := func() {
		d.startQuery(&d.queryLoads[0], workload.Request{Arrival: d.Clock.Now()})
		d.Clock.Run()
	}
	one()
	sent, done := qs.Sent, qs.Completed
	if allocs := testing.AllocsPerRun(100, one); allocs != 0 {
		t.Fatalf("a warm query: %v allocs, want 0", allocs)
	}
	if qs.Sent-sent != 101 || qs.Completed-done != 101 {
		t.Fatalf("%d queries started, %d finished, want 101 each", qs.Sent-sent, qs.Completed-done)
	}
}
