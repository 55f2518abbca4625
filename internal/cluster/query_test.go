package cluster_test

import (
	"testing"
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/frontend"
)

// TestQueryFinishesOnce checks that every query resolves exactly once. A
// frontend drop (here admission control on the car stage) is reported
// while the parent stage is still fanning out, so a dropped child must not
// finish its query before its siblings are dispatched.
func TestQueryFinishesOnce(t *testing.T) {
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(), GPUs: 16, Seed: 1,
		Admission: map[string]frontend.AdmissionConfig{"traffic/car": {Rate: 5, Burst: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apps.Deploy(d, apps.Traffic(10, 20, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	q := d.QueryStats("traffic")
	if d.Recorder.Session("traffic/car").Admission == 0 {
		t.Fatal("no car stage was shed; the test is vacuous")
	}
	if q.Sent == 0 || q.Completed != q.Sent {
		t.Fatalf("%d queries sent, %d completed: want each to finish exactly once", q.Sent, q.Completed)
	}
}
