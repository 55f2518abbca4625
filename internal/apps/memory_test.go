package apps

import (
	"runtime"
	"testing"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/model"
)

// sessionHeapBudget bounds the live heap per session of the deployment
// below: 1.25× the 2144 B measured on linux/amd64 with Go 1.24 (see
// results/dense_handles.md).
const sessionHeapBudget = 2680

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestSessionMemoryBudget guards per-session memory: a deployment of 4000
// sessions (GameSLO(2000), Poisson arrivals) served for 2 virtual seconds
// must hold at most sessionHeapBudget of live heap per session: per-session
// state such as latency histograms and resolved routes must stay small
// next to what the session shares with its unit.
func TestSessionMemoryBudget(t *testing.T) {
	before := liveHeap()
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(),
		GPUs: 12, Seed: 1, Epoch: time.Hour, FixedCluster: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Deploy(d, func(mdb *model.DB) (*Spec, error) {
		s, err := GameSLO(2000, 35000.0/7, 50*time.Millisecond)(mdb)
		if err != nil {
			return nil, err
		}
		return WithPoisson(s), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Recorder.Total().Completed == 0 {
		t.Fatal("deployment served no requests")
	}
	after := liveHeap()
	runtime.KeepAlive(d)
	perSession := float64(after-min(after, before)) / float64(len(spec.Sessions))
	t.Logf("live heap %.1f MB for %d sessions: %.0f B per session (budget %d B)",
		float64(after-min(after, before))/(1<<20), len(spec.Sessions), perSession, sessionHeapBudget)
	if perSession > sessionHeapBudget {
		t.Fatalf("live heap per session %.0f B exceeds the budget of %d B", perSession, sessionHeapBudget)
	}
}
