package apps

import (
	"testing"
	"time"

	"nexus/internal/cluster"
)

// BenchmarkDeploySetup times a large deployment's set-up path:
// cluster.New, installing GameSLO(8000) (16k sessions over 16k specialized
// variants) and the first epoch's 16k-session pack. It is the
// many-sessions benchmark workload's setup_s, without traffic, so the
// profile-and-hash cost of registering many variants of a few base models
// shows up in ns/op, B/op and allocs/op.
func BenchmarkDeploySetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d, err := cluster.New(cluster.Config{
			System: cluster.Nexus, Features: cluster.AllFeatures(),
			GPUs: 48, Seed: 1, Epoch: time.Hour, FixedCluster: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Deploy(d, GameSLO(8000, 140000.0/7, 50*time.Millisecond)); err != nil {
			b.Fatal(err)
		}
		if err := d.Sched.RunEpoch(); err != nil {
			b.Fatal(err)
		}
	}
}
