package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/obslog"
	"nexus/internal/runner"
)

// shardGolden runs a small mixed deployment under a given control-plane
// configuration and serializes everything the sharded planner could
// perturb: the final plan, every frontend routing table, and the audit
// placement log.
func shardGolden(t *testing.T, shards, workers int, hysteresis float64) []byte {
	t.Helper()
	prev := runner.SetDefaultWorkers(workers)
	defer runner.SetDefaultWorkers(prev)
	d, err := New(Config{
		System: Nexus, Features: AllFeatures(), GPUs: 12, Seed: 42,
		Epoch: 10 * time.Second, Audit: true,
		PlannerShards: shards, PlanHysteresis: hysteresis,
	})
	if err != nil {
		t.Fatal(err)
	}
	models := []string{model.ResNet50, model.GoogLeNetCar, model.Darknet53}
	for i := 0; i < 6; i++ {
		if err := d.AddSession(globalsched.SessionSpec{
			ID:           fmt.Sprintf("s%d", i),
			ModelID:      models[i%len(models)],
			SLO:          time.Duration(100+50*(i%3)) * time.Millisecond,
			ExpectedRate: 40 + 25*float64(i%4),
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Run(25 * time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(d.Sched.Plan()); err != nil {
		t.Fatal(err)
	}
	for _, fe := range d.Frontends {
		if err := enc.Encode(fe.TableSnapshot()); err != nil {
			t.Fatal(err)
		}
	}
	if err := obslog.Write(&buf, obslog.Log{Audit: d.Audit()}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardDeterminism is the sharded control plane's golden contract,
// run under -race in CI:
//
//   - Shards=0 and Shards=1 both mean one shard: plans, routing tables, and
//     audit records are byte-identical, with no shard attribution.
//   - At any shard count, output is byte-identical across repeated runs
//     and across runner worker counts (which bound how many shards plan
//     concurrently): parallelism must never leak into what the planner
//     decides.
func TestShardDeterminism(t *testing.T) {
	single := shardGolden(t, 0, 1, 0)
	for _, workers := range []int{1, 8} {
		if got := shardGolden(t, 1, workers, 0); !bytes.Equal(got, single) {
			t.Fatalf("shards=1 workers=%d diverges from the shards=0 golden", workers)
		}
	}
	for _, shards := range []int{2, 8} {
		base := shardGolden(t, shards, 1, 0.05)
		if again := shardGolden(t, shards, 1, 0.05); !bytes.Equal(base, again) {
			t.Fatalf("shards=%d differs across identical serial runs", shards)
		}
		for _, workers := range []int{2, 8} {
			if par := shardGolden(t, shards, workers, 0.05); !bytes.Equal(base, par) {
				t.Fatalf("shards=%d differs between workers=1 and workers=%d", shards, workers)
			}
		}
	}
}
