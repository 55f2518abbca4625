package trace

import (
	"strings"
	"testing"
)

func TestAuditPlanDiffAndChaosAccessors(t *testing.T) {
	a := NewAudit()
	a.RecordChaos(ChaosRecord{AtMS: 9000, Kind: "outage", Backend: "be0", To: "down"})
	a.RecordPlanDiff(PlanDiffRecord{
		Epoch: 2, AtMS: 10000, Cause: "recovery", SessionsMoved: 1,
		Changes: []PlanChange{{Kind: "replica-removed", Node: "plan-0", From: "be0"}},
	})
	if len(a.Chaos()) != 1 || len(a.PlanDiffs()) != 1 {
		t.Fatalf("accessors: chaos=%d diffs=%d, want 1/1", len(a.Chaos()), len(a.PlanDiffs()))
	}
	if a.PlanDiffs()[0].Cause != "recovery" || a.Chaos()[0].Backend != "be0" {
		t.Fatalf("accessors: diffs=%+v chaos=%+v", a.PlanDiffs(), a.Chaos())
	}
}

func TestAuditPlanDiffOverflowCounted(t *testing.T) {
	a := NewAudit()
	for i := 0; i < maxPlanDiffs+3; i++ {
		a.RecordPlanDiff(PlanDiffRecord{Epoch: i})
	}
	if len(a.PlanDiffs()) != maxPlanDiffs {
		t.Fatalf("log grew past its bound: %d", len(a.PlanDiffs()))
	}
	if a.diffsLost != 3 {
		t.Fatalf("diffsLost = %d, want 3", a.diffsLost)
	}
	// A log reader restores the counts onto a fresh audit.
	b := NewAudit()
	b.AddLost(a.Lost())
	b.AddLost(Lost{Chaos: 2})
	if got := b.Lost(); got != (Lost{Chaos: 2, PlanDiffs: 3}) {
		t.Fatalf("restored lost counts %+v", got)
	}
	var nilAudit *Audit
	nilAudit.AddLost(Lost{Chaos: 1})
	if nilAudit.Lost() != (Lost{}) {
		t.Fatal("nil audit retained lost counts")
	}
}

func TestNilAuditNoOps(t *testing.T) {
	var a *Audit
	a.RecordChaos(ChaosRecord{})
	a.RecordPlanDiff(PlanDiffRecord{})
	if a.Chaos() != nil || a.PlanDiffs() != nil {
		t.Fatal("nil audit retained state")
	}
}

func TestWritePlanDiffText(t *testing.T) {
	var sb strings.Builder
	pd := PlanDiffRecord{
		Epoch: 3, AtMS: 15000, Cause: "periodic", SessionsMoved: 2,
		ShardsReplan: 1, ShardsSkipped: 3,
		Changes: []PlanChange{
			{Kind: "session-moved", Session: "s", Unit: "u", From: "plan-0", To: "plan-1"},
			{Kind: "rate-changed", Session: "s", Unit: "u", Node: "plan-1", Detail: "100 -> 130 rps"},
		},
	}
	if err := WritePlanDiffText(&sb, pd); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"epoch 3", "cause=periodic", "moved=2", "shards=1 replanned/3 skipped",
		"session-moved", "plan-0->plan-1", "rate-changed", "(100 -> 130 rps)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("plan-diff text missing %q:\n%s", want, out)
		}
	}

	// A quiet decision renders its header with an explicit no-change marker.
	sb.Reset()
	if err := WritePlanDiffText(&sb, PlanDiffRecord{Epoch: 4, Cause: "periodic"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "(no changes)") {
		t.Errorf("quiet diff missing the no-change marker: %q", sb.String())
	}
}
