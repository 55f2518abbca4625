package scheduler

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nexus/internal/profiler"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// goldenWorkload is the seeded input of the plan golden: a few linear
// models and sessions whose rates range from several saturated GPUs down
// to a sliver of a duty cycle.
func goldenWorkload() ([]Session, map[string]*profiler.Profile) {
	rng := rand.New(rand.NewSource(33))
	profiles := make(map[string]*profiler.Profile)
	for m := 0; m < 5; m++ {
		id := fmt.Sprintf("m%d", m)
		alpha := time.Duration(rng.Intn(1500)+300) * time.Microsecond
		beta := time.Duration(rng.Intn(8)+2) * time.Millisecond
		profiles[id] = linearProfile(id, alpha, beta, 64)
	}
	sessions := make([]Session, 72)
	for i := range sessions {
		sessions[i] = Session{
			ID:      fmt.Sprintf("s%02d", i),
			ModelID: fmt.Sprintf("m%d", rng.Intn(5)),
			SLO:     time.Duration(60+20*rng.Intn(10)) * time.Millisecond,
			Rate:    600 / float64(1+rng.Intn(40)),
		}
	}
	return sessions, profiles
}

// drift scales every rate by a seeded factor in [0.6, 1.4].
func drift(sessions []Session, rng *rand.Rand) []Session {
	out := append([]Session(nil), sessions...)
	for i := range out {
		out[i].Rate *= 0.6 + 0.8*rng.Float64()
	}
	return out
}

func writePlan(b *strings.Builder, p *Plan) {
	for _, g := range p.GPUs {
		kind := "shared"
		switch {
		case g.Saturated:
			kind = "saturated"
		case g.Spatial:
			kind = "spatial"
		}
		fmt.Fprintf(b, "  %s %s duty=%v\n", g.ID, kind, g.Duty)
		for _, a := range g.Allocs {
			fmt.Fprintf(b, "    %s %s batch=%d rate=%v", a.SessionID, a.ModelID, a.Batch, a.Rate)
			if a.Slice > 0 {
				fmt.Fprintf(b, " slice=%v", a.Slice)
			}
			b.WriteByte('\n')
		}
	}
}

// packPaths records which incremental packing paths one epoch took, as
// far as the plans before and after show them.
type packPaths struct {
	drain, evict, pendingKept bool
}

// observePaths infers the incremental paths of a one-shard epoch from its
// previous and next plans (bare node IDs, every session on at most one
// shared node):
//
//   - evict: a session left a shared node that survives, for another
//     shared node. Only rebuildNode takes a session off a surviving node.
//   - pendingKept: a session reached a previous shared node it was not on
//     before, and its old node (if any) survives. Consolidation moves only
//     sessions whose node is removed, so it was a pending placement.
//   - drain: a previous shared node is gone although all its sessions
//     still hold shared allocations and none gained a new dedicated node.
//     rebuildNode drops a node only when every member is unsustainable,
//     and each of those gets a new dedicated node, so consolidation
//     drained it.
func observePaths(prev, next *Plan) packPaths {
	prevIDs := make(map[string]bool)
	prevHome := make(map[string]string)
	prevMembers := make(map[string][]string)
	for _, g := range prev.GPUs {
		prevIDs[g.ID] = true
		if g.Saturated {
			continue
		}
		for _, a := range g.Allocs {
			prevHome[a.SessionID] = g.ID
			prevMembers[g.ID] = append(prevMembers[g.ID], a.SessionID)
		}
	}
	nextIDs := make(map[string]bool)
	nextHome := make(map[string]string)
	newSat := make(map[string]bool)
	for _, g := range next.GPUs {
		nextIDs[g.ID] = true
		for _, a := range g.Allocs {
			if !g.Saturated {
				nextHome[a.SessionID] = g.ID
			} else if !prevIDs[g.ID] {
				newSat[a.SessionID] = true
			}
		}
	}
	var p packPaths
	for s, home := range nextHome {
		old := prevHome[s]
		if old != "" && old != home && nextIDs[old] {
			p.evict = true
		}
		if prevMembers[home] != nil && old != home && (old == "" || nextIDs[old]) {
			p.pendingKept = true
		}
	}
	for id, members := range prevMembers {
		if nextIDs[id] {
			continue
		}
		drained := true
		for _, s := range members {
			if nextHome[s] == "" || newSat[s] {
				drained = false
			}
		}
		p.drain = p.drain || drained
	}
	return p
}

// TestPlansGolden pins the plans and stats of a seeded set of packing
// instances: fresh Pack with and without a memory cap, three-epoch
// temporal sharded runs at 1, 2 and 4 shards with ±40% rate drift between
// epochs, and the same drift under spatial and hybrid placement at 1 and
// 2 shards.
// It also asserts that the instances take every incremental path that
// merges duty cycles (consolidation drain, rebuildNode eviction, pending
// best-fit into a kept node, cross-shard move), so the golden covers all
// of them. Rewrite with -update after an intentional change.
func TestPlansGolden(t *testing.T) {
	sessions, profiles := goldenWorkload()
	var b strings.Builder
	for _, mem := range []int64{0, 3 << 30} {
		cfg := Config{GPUMemBytes: mem}
		plan, err := Pack(sessions, profiles, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Validate(plan, sessions, profiles, cfg); err != nil {
			t.Fatalf("mem=%d: %v", mem, err)
		}
		fmt.Fprintf(&b, "== pack mem=%d gpus=%d\n", mem, plan.GPUCount())
		writePlan(&b, plan)
	}
	var seen packPaths
	crossShard := false
	runs := []struct {
		placement Placement
		shards    int
	}{
		{PlaceTemporal, 1}, {PlaceTemporal, 2}, {PlaceTemporal, 4},
		{PlaceSpatial, 1}, {PlaceSpatial, 2}, {PlaceHybrid, 1}, {PlaceHybrid, 2},
	}
	for _, run := range runs {
		shards, cfg := run.shards, Config{Placement: run.placement}
		tag := ""
		if run.placement != PlaceTemporal {
			tag = run.placement.String() + " "
		}
		rng := rand.New(rand.NewSource(int64(shards)))
		sp := NewShardPlanner(shards)
		epoch := sessions
		var prev *Plan
		for e := 0; e < 3; e++ {
			if e > 0 {
				epoch = drift(epoch, rng)
			}
			res, err := sp.Plan(epoch, profiles, cfg, ShardOpts{})
			if err != nil {
				t.Fatal(err)
			}
			if err := Validate(res.Plan, epoch, profiles, cfg); err != nil {
				t.Fatalf("%sshards=%d epoch=%d: %v", tag, shards, e, err)
			}
			sp.Commit(res)
			fmt.Fprintf(&b, "== %sshards=%d epoch=%d gpus=%d stats=%+v %+v\n", tag, shards, e, res.Plan.GPUCount(), DiffPlans(prev, res.Plan), res.Stats)
			writePlan(&b, res.Plan)
			if run.placement == PlaceTemporal && shards == 1 && prev != nil {
				p := observePaths(prev, res.Plan)
				seen.drain = seen.drain || p.drain
				seen.evict = seen.evict || p.evict
				seen.pendingKept = seen.pendingKept || p.pendingKept
			}
			crossShard = crossShard || res.Stats.CrossShardMoves > 0
			prev = res.Plan
		}
	}
	if !seen.drain || !seen.evict || !seen.pendingKept || !crossShard {
		t.Errorf("instances miss a packing path: %+v crossShard=%v", seen, crossShard)
	}
	path := filepath.Join("testdata", "plans.golden")
	got := b.String()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("plans differ from %s (rerun with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
