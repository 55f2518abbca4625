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
	for _, rec := range e.sched.Explain().Placements {
		if rec.Shard == "" {
			t.Fatalf("explain placement %s lacks shard tag", rec.Node)
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

// TestFailureRepairGoesOutAsDelta: the control plane is the frontends'
// only writer, so a backend death reaches them as a delta of the repaired
// routes, never as a full push, and they end holding the scheduler's
// published table at its generation.
func TestFailureRepairGoesOutAsDelta(t *testing.T) {
	e := newEnv(t, degradedConfig(), 32)
	addMixedSessions(t, e, 6)
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	e.clock.RunUntil(time.Second) // let beats flow
	victim := assignedBackends(e)[0]
	deltas, fulls, _ := e.sched.RoutePushStats()
	e.pool.Get(victim).Fail()
	e.clock.RunUntil(e.clock.Now() + time.Second)
	e.sched.checkLeases()
	if e.sched.Failures() != 1 {
		t.Fatalf("failures = %d, want 1", e.sched.Failures())
	}
	deltasAfter, fullsAfter, _ := e.sched.RoutePushStats()
	if fullsAfter != fulls || deltasAfter != deltas+1 {
		t.Fatalf("repair pushes: deltas %d -> %d, fulls %d -> %d; want one delta and no full push",
			deltas, deltasAfter, fulls, fullsAfter)
	}
	if diff := e.sched.OutOfSync(e.fe); diff != "" {
		t.Fatal(diff)
	}
	for _, routes := range e.fe.TableSnapshot() {
		for _, r := range routes {
			if r.BackendID == victim {
				t.Fatalf("a route still names dead %s", victim)
			}
		}
	}
	if len(e.fe.Sessions()) != 6 {
		t.Fatalf("routable sessions after the repair = %v", e.fe.Sessions())
	}
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
