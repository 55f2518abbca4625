package obslog_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/faults"
	"nexus/internal/forensics"
	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/obslog"
	"nexus/internal/queryopt"
	"nexus/internal/telemetry"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// TestRoundTripChaosDeployment is the schema's end-to-end contract:
// Read(Write(l)) == l, plane by plane, for a forensics-on deployment that
// loses a backend mid-run, so every record kind but the lost counts is
// present.
func TestRoundTripChaosDeployment(t *testing.T) {
	d, err := cluster.New(cluster.Config{
		System: cluster.Nexus, Features: cluster.AllFeatures(), GPUs: 4, Seed: 7, Epoch: 5 * time.Second,
		Heartbeat: 100 * time.Millisecond, LeaseMisses: 3, RetryBudget: 1,
		Telemetry: &telemetry.Config{Interval: 250 * time.Millisecond},
		Forensics: &forensics.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddSession(globalsched.SessionSpec{
		ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 1500,
	}, workload.Uniform{Rate: 1500}); err != nil {
		t.Fatal(err)
	}
	q := &queryopt.Query{Name: "watch", SLO: 400 * time.Millisecond,
		Root: &queryopt.Node{Name: "det", ModelID: model.SSD, Edges: []queryopt.Edge{
			{Gamma: 2, Child: &queryopt.Node{Name: "car", ModelID: model.GoogLeNetCar}},
		}}}
	if err := d.AddQuery(globalsched.QuerySpec{Query: q, ExpectedRate: 20}, nil); err != nil {
		t.Fatal(err)
	}
	in := faults.New(d.Clock, d, 7)
	if err := in.Schedule(faults.Script{{At: 9 * time.Second, Kind: faults.Crash, Backend: "be0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := d.ObsLog()
	var buf bytes.Buffer
	if err := obslog.Write(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := obslog.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	check := func(plane string, n int, g, w any) {
		t.Helper()
		if n == 0 {
			t.Errorf("%s: the run produced none; the check is vacuous", plane)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s differ after the round trip", plane)
		}
	}
	check("spans", len(want.Spans), got.Spans, want.Spans)
	wa, ga := want.Audit, got.Audit
	check("placements", len(wa.Placements()), ga.Placements(), wa.Placements())
	check("splits", len(wa.Splits()), ga.Splits(), wa.Splits())
	check("drop windows", len(wa.DropWindows()), ga.DropWindows(), wa.DropWindows())
	check("chaos records", len(wa.Chaos()), ga.Chaos(), wa.Chaos())
	check("plan diffs", len(wa.PlanDiffs()), ga.PlanDiffs(), wa.PlanDiffs())
	if ga.Lost() != wa.Lost() {
		t.Errorf("lost counts %+v, want %+v", ga.Lost(), wa.Lost())
	}
	check("snapshots", len(want.Snapshots), got.Snapshots, want.Snapshots)
	check("alerts", len(want.Alerts), got.Alerts, want.Alerts)
	check("dumps", len(want.Dumps), unpacked(got.Dumps), unpacked(want.Dumps))
	got.Dumps, want.Dumps = nil, nil // compared above
	if !reflect.DeepEqual(got, want) {
		t.Error("logs differ after the round trip")
	}
}

// dumpEvents is a dump with its window's spans unpacked.
type dumpEvents struct {
	forensics.Dump
	Events []trace.Event
}

// unpacked returns dumps with their spans as events: a captured window
// shares its tracer's name table and a decoded one builds its own, so
// equal windows may number their names differently.
func unpacked(dumps []forensics.Dump) []dumpEvents {
	out := make([]dumpEvents, len(dumps))
	for i, d := range dumps {
		out[i].Events = d.Spans.Events()
		d.Spans = trace.Spans{}
		out[i].Dump = d
	}
	return out
}
