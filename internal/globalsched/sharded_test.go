package globalsched

import (
	"fmt"
	"testing"
	"time"

	"math/rand"

	"nexus/internal/model"
	"nexus/internal/scheduler"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// addMixedSessions registers a workload big enough to spread across shards.
func addMixedSessions(t *testing.T, e *env, n int) {
	t.Helper()
	models := []string{model.ResNet50, model.Darknet53, model.GoogLeNetCar}
	for i := 0; i < n; i++ {
		if _, err := e.sched.AddSession(SessionSpec{
			ID:           fmt.Sprintf("s%02d", i),
			ModelID:      models[i%len(models)],
			SLO:          time.Duration(150+50*(i%3)) * time.Millisecond,
			ExpectedRate: 40 + 20*float64(i%4),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedEpochServesTraffic: the full sharded + hysteresis control
// plane serves a mixed workload end to end.
func TestShardedEpochServesTraffic(t *testing.T) {
	cfg := nexusConfig()
	cfg.Shards = 4
	cfg.PlanHysteresis = 0.05
	e := newEnv(t, cfg, 64)
	addMixedSessions(t, e, 12)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	stats := e.sched.LastShardStats()
	if stats.Shards != 4 || stats.Replanned != 4 {
		t.Fatalf("first epoch shard stats = %+v", stats)
	}
	e.clock.RunUntil(2 * time.Second)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		sid := fmt.Sprintf("s%02d", i)
		e.stamp(workload.Start(e.clock, rng, sid, 200*time.Millisecond, workload.Uniform{Rate: 50},
			e.clock.Now()+10*time.Second, func(r workload.Request) { e.fe.Dispatch(r) }))
	}
	e.clock.RunUntil(8 * time.Second)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	e.clock.Run()
	total := e.good + e.missed + e.dropped
	if total < 5000 {
		t.Fatalf("completed %d requests", total)
	}
	if bad := float64(e.missed+e.dropped) / float64(total); bad > 0.02 {
		t.Fatalf("bad rate %.3f under sharded control plane", bad)
	}
	// Placements must carry shard attribution.
	for _, g := range e.sched.Plan().GPUs {
		if _, ok := scheduler.NodeShard(g.ID); !ok {
			t.Fatalf("plan node %q lacks shard prefix", g.ID)
		}
	}
	for _, a := range e.sched.Explain().Allocs {
		if a.Shard == "" {
			t.Fatalf("explain alloc for %s lacks shard tag", a.Session)
		}
	}
}

// TestShardedHysteresisSkipsQuietEpochs: with stable observed rates, later
// epochs skip every shard and re-use the committed plans.
func TestShardedHysteresisSkipsQuietEpochs(t *testing.T) {
	cfg := nexusConfig()
	cfg.Shards = 2
	cfg.PlanHysteresis = 0.05
	e := newEnv(t, cfg, 32)
	addMixedSessions(t, e, 8)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	// Quiet epochs: no traffic at all, so EWMA rates only decay; after the
	// first decay settles inside the band, shards stop re-planning.
	skipped := false
	for i := 0; i < 6; i++ {
		e.clock.RunUntil(e.clock.Now() + 10*time.Second)
		if err := e.sched.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if s := e.sched.LastShardStats(); s.Skipped == 2 && s.Replanned == 0 {
			skipped = true
			break
		}
	}
	if !skipped {
		t.Fatalf("no quiet epoch skipped all shards: %+v", e.sched.LastShardStats())
	}
	_, skippedTotal, _ := e.sched.ShardTotals()
	if skippedTotal == 0 {
		t.Fatal("cumulative skip counter never advanced")
	}
}

// TestDeltaRoutingSteadyState: an epoch that does not change the routing
// table pushes nothing at all, and route-changing epochs go out as deltas,
// not full tables.
func TestDeltaRoutingSteadyState(t *testing.T) {
	cfg := nexusConfig()
	cfg.Shards = 2
	cfg.PlanHysteresis = 0.05
	e := newEnv(t, cfg, 32)
	addMixedSessions(t, e, 8)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	deltas0, fulls0, _ := e.sched.RoutePushStats()
	if fulls0 != 1 || deltas0 != 0 {
		t.Fatalf("first publish: deltas=%d fulls=%d, want 0/1", deltas0, fulls0)
	}
	ver := e.fe.TableVersion()
	// Find a steady-state epoch: table unchanged -> no push at all.
	settled := false
	for i := 0; i < 6; i++ {
		e.clock.RunUntil(e.clock.Now() + 10*time.Second)
		before := e.fe.TableVersion()
		if err := e.sched.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if e.fe.TableVersion() == before {
			settled = true
			break
		}
	}
	if !settled {
		t.Fatalf("no steady-state epoch skipped the push (version %d -> %d)", ver, e.fe.TableVersion())
	}
	// The frontend's routing table still matches the scheduler's plan view.
	if len(e.fe.Sessions()) != 8 {
		t.Fatalf("routable sessions = %v", e.fe.Sessions())
	}
}

// TestDeltaRoutingResyncAfterLocalRepair: a frontend that repaired routes
// locally (backend death) diverges from the publish generation; the next
// epoch's delta bounces and the control plane full-resyncs it.
func TestDeltaRoutingResyncAfterLocalRepair(t *testing.T) {
	e := newEnv(t, nexusConfig(), 32)
	addMixedSessions(t, e, 6)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	genBefore := e.fe.Generation()
	// Simulate a local repair: the frontend deletes a backend's routes on
	// its own and moves off the control plane's generation sequence.
	// Pick the lexicographically smallest in-use backend: iterating the map
	// directly made the victim — and therefore whether the repaired routes
	// intersect the next epoch's plan — vary run to run.
	var victim string
	for beID := range e.pool.inUse {
		if victim == "" || beID < victim {
			victim = beID
		}
	}
	if e.fe.RemoveBackend(victim) == 0 {
		t.Fatalf("backend %s had no routes to repair", victim)
	}
	if e.fe.Generation() == genBefore {
		t.Fatal("local repair did not move the generation")
	}
	// Drive real traffic so the next epoch re-plans with changed rates and
	// must push an update.
	e.clock.RunUntil(2 * time.Second)
	rng := rand.New(rand.NewSource(3))
	e.stamp(workload.Start(e.clock, rng, "s00", 200*time.Millisecond, workload.Uniform{Rate: 400},
		e.clock.Now()+6*time.Second, func(r workload.Request) { e.fe.Dispatch(r) }))
	e.clock.RunUntil(9 * time.Second)
	_, fullsBefore, _ := e.sched.RoutePushStats()
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	_, fullsAfter, _ := e.sched.RoutePushStats()
	if fullsAfter != fullsBefore+1 {
		t.Fatalf("diverged frontend was not full-resynced: fulls %d -> %d", fullsBefore, fullsAfter)
	}
	// After the resync, generations re-align and the frontend serves the
	// scheduler's full session set again.
	if len(e.fe.Sessions()) != 6 {
		t.Fatalf("routable sessions after resync = %v", e.fe.Sessions())
	}
	e.clock.Run()
}

// TestShardedAuditRecordsShard: audit placements, plan diffs, and health
// reports carry shard attribution when the plan is partitioned, and none of
// it at one shard (Shards 0 or 1).
func TestShardedAuditRecordsShard(t *testing.T) {
	run := func(shards int) *env {
		cfg := nexusConfig()
		cfg.Shards = shards
		e := newEnv(t, cfg, 32)
		e.sched.cfg.Audit = trace.NewAudit()
		addMixedSessions(t, e, 6)
		if err := e.sched.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	sharded := run(2)
	for _, p := range sharded.sched.cfg.Audit.Placements() {
		if p.Shard == "" {
			t.Fatalf("sharded placement %s lacks shard tag", p.Node)
		}
	}
	if diffs := sharded.sched.cfg.Audit.PlanDiffs(); len(diffs) != 1 || diffs[0].ShardsReplan != 2 {
		t.Fatalf("sharded plan diffs = %+v, want one with 2 shards replanned", diffs)
	}
	if got := sharded.sched.Explain().ShardsReplanned; got != 2 {
		t.Fatalf("sharded health report: shards replanned = %d, want 2", got)
	}
	for _, shards := range []int{0, 1} {
		single := run(shards)
		for _, p := range single.sched.cfg.Audit.Placements() {
			if p.Shard != "" {
				t.Fatalf("shards=%d: placement %s carries shard tag %q", shards, p.Node, p.Shard)
			}
		}
		if diffs := single.sched.cfg.Audit.PlanDiffs(); len(diffs) != 1 || diffs[0].ShardsReplan != 0 {
			t.Fatalf("shards=%d: plan diffs = %+v, want no shard counts", shards, diffs)
		}
		if got := single.sched.Explain().ShardsReplanned; got != 0 {
			t.Fatalf("shards=%d: health report counts %d shards replanned", shards, got)
		}
	}
}
