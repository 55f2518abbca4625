package scheduler

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"nexus/internal/profiler"
	"nexus/internal/runner"
)

func TestShardOfDeterministic(t *testing.T) {
	for _, id := range []string{"a", "session-7", "game/chat"} {
		k := ShardOf(id, 8)
		if k < 0 || k >= 8 {
			t.Fatalf("ShardOf(%q, 8) = %d out of range", id, k)
		}
		if k2 := ShardOf(id, 8); k2 != k {
			t.Fatalf("ShardOf(%q) not stable: %d then %d", id, k, k2)
		}
		if ShardOf(id, 1) != 0 {
			t.Fatalf("ShardOf(%q, 1) != 0", id)
		}
	}
}

func TestNodeShardRoundTrip(t *testing.T) {
	id := shardNodeID(3, 8, "n7")
	if id != "s3/n7" {
		t.Fatalf("shardNodeID = %q, want s3/n7", id)
	}
	k, ok := NodeShard(id)
	if !ok || k != 3 {
		t.Fatalf("NodeShard(%q) = %d, %v", id, k, ok)
	}
	if bare := shardNodeID(0, 1, "n7"); bare != "n7" {
		t.Fatalf("single-shard node ID = %q, want bare n7", bare)
	}
	for _, bad := range []string{"n7", "s/n7", "sx/n7", "", "saturated"} {
		if _, ok := NodeShard(bad); ok {
			t.Fatalf("NodeShard(%q) parsed a shard", bad)
		}
	}
}

// shardWorkload builds a mixed workload big enough to populate several
// shards: tiny residual sessions plus a few saturated ones.
func shardWorkload(n int) ([]Session, map[string]*profiler.Profile) {
	profiles := map[string]*profiler.Profile{
		"m0": linearProfile("m0", time.Millisecond, 5*time.Millisecond, 32),
		"m1": linearProfile("m1", 2*time.Millisecond, 8*time.Millisecond, 32),
	}
	sessions := make([]Session, n)
	for i := range sessions {
		rate := 400 / float64(1+i%11)
		sessions[i] = Session{
			ID:      fmt.Sprintf("s%03d", i),
			ModelID: fmt.Sprintf("m%d", i%2),
			SLO:     time.Duration(100+50*(i%4)) * time.Millisecond,
			Rate:    rate,
		}
	}
	return sessions, profiles
}

// TestShardedOneShardMatchesPack: with a single shard the sharded planner is
// byte-identical to Pack — no ID prefixes, no rebalance, same packing. This
// is what keeps the one-shard default's goldens equal to plain Pack's.
func TestShardedOneShardMatchesPack(t *testing.T) {
	sessions, profiles := shardWorkload(24)
	want, err := Pack(sessions, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp := NewShardPlanner(1)
	res, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Plan, want) {
		t.Fatalf("1-shard plan differs from Pack:\n got %+v\nwant %+v", res.Plan, want)
	}
	if res.Stats.Shards != 1 || res.Stats.Replanned != 1 || res.Stats.Skipped != 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestShardedMergedPlanValid(t *testing.T) {
	sessions, profiles := shardWorkload(40)
	for _, shards := range []int{2, 4, 8} {
		sp := NewShardPlanner(shards)
		res, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := Validate(res.Plan, sessions, profiles, Config{}); err != nil {
			t.Fatalf("shards=%d: merged plan invalid: %v", shards, err)
		}
		for _, g := range res.Plan.GPUs {
			if _, ok := NodeShard(g.ID); !ok {
				t.Fatalf("shards=%d: node %q lacks shard prefix", shards, g.ID)
			}
		}
	}
}

// TestShardedDeterministicAcrossWorkers: worker count is a throughput knob,
// never a planning input — merged plans must match at any parallelism.
func TestShardedDeterministicAcrossWorkers(t *testing.T) {
	sessions, profiles := shardWorkload(48)
	var want *Plan
	prev := runner.SetDefaultWorkers(1)
	defer runner.SetDefaultWorkers(prev)
	for _, workers := range []int{1, 2, 8} {
		runner.SetDefaultWorkers(workers)
		sp := NewShardPlanner(8)
		res, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = res.Plan
			continue
		}
		if !reflect.DeepEqual(res.Plan, want) {
			t.Fatalf("workers=%d: plan differs from workers=1", workers)
		}
	}
}

// TestShardedHysteresisSkip: an unchanged workload re-plans nothing; every
// shard carries its plan forward verbatim.
func TestShardedHysteresisSkip(t *testing.T) {
	sessions, profiles := shardWorkload(24)
	sp := NewShardPlanner(2)
	first, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	sp.Commit(first)
	second, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Skipped != 2 || second.Stats.Replanned != 0 {
		t.Fatalf("unchanged epoch: %+v", second.Stats)
	}
	if !reflect.DeepEqual(second.Plan, first.Plan) {
		t.Fatal("carried-forward plan differs from committed plan")
	}
	if second.Stats.NodesKept != len(first.Plan.GPUs) {
		t.Fatalf("NodesKept = %d, want %d", second.Stats.NodesKept, len(first.Plan.GPUs))
	}

	// In-band wobble (well under 5% and under the absolute floor) still skips.
	wobbled := make([]Session, len(sessions))
	copy(wobbled, sessions)
	for i := range wobbled {
		wobbled[i].Rate *= 1.001
	}
	third, err := sp.Plan(wobbled, profiles, Config{}, ShardOpts{Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if third.Stats.Skipped != 2 {
		t.Fatalf("in-band wobble re-planned: %+v", third.Stats)
	}
}

// TestShardedHysteresisDirtyShardOnly: a material rate change re-plans the
// session's shard and only that shard.
func TestShardedHysteresisDirtyShardOnly(t *testing.T) {
	sessions, profiles := shardWorkload(24)
	sp := NewShardPlanner(4)
	first, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	sp.Commit(first)
	changed := make([]Session, len(sessions))
	copy(changed, sessions)
	changed[0].Rate *= 2
	second, err := sp.Plan(changed, profiles, Config{}, ShardOpts{Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Replanned != 1 || second.Stats.Skipped != 3 {
		t.Fatalf("one dirty session re-planned %d shards (skipped %d), want 1 (3)",
			second.Stats.Replanned, second.Stats.Skipped)
	}
	if err := Validate(second.Plan, changed, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedForceReplansAll: admission-control re-iterations mark every
// shard dirty so globally scaled rates take effect everywhere.
func TestShardedForceReplansAll(t *testing.T) {
	sessions, profiles := shardWorkload(24)
	sp := NewShardPlanner(4)
	first, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	sp.Commit(first)
	second, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{Hysteresis: 0.05, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Replanned != 4 || second.Stats.Skipped != 0 {
		t.Fatalf("Force: %+v", second.Stats)
	}
}

// TestShardedPlanIsPure: Plan never mutates the planner; only Commit does.
// The control plane relies on this to iterate admission control safely.
func TestShardedPlanIsPure(t *testing.T) {
	sessions, profiles := shardWorkload(24)
	sp := NewShardPlanner(2)
	first, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// No Commit: a second identical Plan call must still see no previous
	// state and re-plan everything, identically.
	second, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{Hysteresis: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if second.Stats.Replanned != 2 {
		t.Fatalf("uncommitted Plan leaked state: %+v", second.Stats)
	}
	if !reflect.DeepEqual(second.Plan, first.Plan) {
		t.Fatal("repeated uncommitted Plan calls disagree")
	}
}

// TestShardedRebalanceConsolidates: tiny sessions that land in different
// shards leave each shard with a low-occupancy tail node; the cross-shard
// rebalance drains those into one another's spare duty cycle.
func TestShardedRebalanceConsolidates(t *testing.T) {
	profiles := map[string]*profiler.Profile{
		"m": linearProfile("m", time.Millisecond, 5*time.Millisecond, 32),
	}
	var sessions []Session
	for i := 0; i < 8; i++ {
		sessions = append(sessions, Session{
			ID: fmt.Sprintf("tiny%d", i), ModelID: "m",
			SLO: 500 * time.Millisecond, Rate: 3,
		})
	}
	mono, err := Pack(sessions, profiles, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp := NewShardPlanner(2)
	res, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Plan, sessions, profiles, Config{}); err != nil {
		t.Fatalf("rebalanced plan invalid: %v", err)
	}
	if res.Stats.CrossShardMoves == 0 {
		t.Fatalf("expected cross-shard moves, got %+v", res.Stats)
	}
	// Consolidation should close the gap to the monolithic GPU count.
	if res.Plan.GPUCount() != mono.GPUCount() {
		t.Fatalf("sharded used %d GPUs, monolithic %d", res.Plan.GPUCount(), mono.GPUCount())
	}

	// Migrated sessions keep their new home: after Commit, planning the same
	// workload again must not move them back.
	sp.Commit(res)
	again, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.CrossShardMoves != 0 {
		t.Fatalf("rebalance flapped: %+v", again.Stats)
	}
	if again.Plan.GPUCount() != res.Plan.GPUCount() {
		t.Fatalf("post-migration GPU count moved %d -> %d",
			res.Plan.GPUCount(), again.Plan.GPUCount())
	}
	if err := Validate(again.Plan, sessions, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedSaturatedPinned: sessions holding saturated GPUs in their home
// shard are never migrated by the rebalance.
func TestShardedSaturatedPinned(t *testing.T) {
	profiles := map[string]*profiler.Profile{
		"m": linearProfile("m", time.Millisecond, 5*time.Millisecond, 32),
	}
	// One big session per shard (saturated GPUs + a residual tail node),
	// plus tiny sessions to create donor candidates.
	sessions := []Session{
		{ID: "big0", ModelID: "m", SLO: 200 * time.Millisecond, Rate: 900},
		{ID: "big1", ModelID: "m", SLO: 200 * time.Millisecond, Rate: 900},
	}
	for i := 0; i < 6; i++ {
		sessions = append(sessions, Session{
			ID: fmt.Sprintf("tiny%d", i), ModelID: "m",
			SLO: 500 * time.Millisecond, Rate: 3,
		})
	}
	sp := NewShardPlanner(2)
	res, err := sp.Plan(sessions, profiles, Config{}, ShardOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(res.Plan, sessions, profiles, Config{}); err != nil {
		t.Fatal(err)
	}
	// The big sessions' residual allocations must still sit in the shard
	// that holds their saturated nodes.
	satShard := map[string]int{}
	for _, g := range res.Plan.GPUs {
		if !g.Saturated {
			continue
		}
		k, _ := NodeShard(g.ID)
		for _, a := range g.Allocs {
			satShard[a.SessionID] = k
		}
	}
	for _, g := range res.Plan.GPUs {
		if g.Saturated {
			continue
		}
		k, _ := NodeShard(g.ID)
		for _, a := range g.Allocs {
			if want, ok := satShard[a.SessionID]; ok && k != want {
				t.Fatalf("session %s residual in shard %d, saturated GPUs in %d",
					a.SessionID, k, want)
			}
		}
	}
}
