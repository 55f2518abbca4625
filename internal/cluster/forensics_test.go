package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"nexus/internal/faults"
	"nexus/internal/forensics"
	"nexus/internal/globalsched"
	"nexus/internal/model"
	"nexus/internal/runner"
	"nexus/internal/telemetry"
	"nexus/internal/trace"
	"nexus/internal/workload"
)

// forensicsChaosConfig is the TestChaosBurnRateAlert setup with the flight
// recorder switched on: a crash mid-run raises a burn-rate alert, and the
// alert must now also produce a correlated dump bundle.
func forensicsChaosConfig() Config {
	return Config{
		System: Nexus, Features: AllFeatures(), GPUs: 4, Seed: 7, Epoch: 5 * time.Second,
		Heartbeat: 100 * time.Millisecond, LeaseMisses: 3, RetryBudget: 1,
		Telemetry: &telemetry.Config{
			Interval: 250 * time.Millisecond,
			Rules: []telemetry.Rule{
				telemetry.BurnRate{Short: 500 * time.Millisecond, Long: 2 * time.Second, Threshold: 2},
				telemetry.BackendFlap{},
			},
		},
		Forensics: &forensics.Config{},
	}
}

// TestForensicsChaosDump is the flight-recorder acceptance criterion: the
// burn-rate alert raised by a mid-run crash must trigger exactly one dump
// bundle whose capture window contains the injected outage edge, the spans
// of the requests that burned the SLO, and the metric samples around the
// incident — the post-mortem is assembled at detection time, not replayed.
func TestForensicsChaosDump(t *testing.T) {
	d := chaosDeployment(t, forensicsChaosConfig())
	in := faults.New(d.Clock, d, 7)
	if err := in.Schedule(faults.Script{{At: chaosFaultAt, Kind: faults.Crash, Backend: "be0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	fr := d.Flight()
	if fr == nil {
		t.Fatal("flight recorder not enabled")
	}
	dumps := fr.Dumps()
	if len(dumps) == 0 {
		t.Fatalf("no dump captured; alerts: %+v", d.Telemetry().Alerts())
	}
	// The first dump is the paging alert itself.
	dump := dumps[0]
	if dump.Rule != "slo-burn-rate" {
		t.Fatalf("first dump triggered by %q, want slo-burn-rate", dump.Rule)
	}
	if at := time.Duration(dump.AtMS * float64(time.Millisecond)); at < chaosFaultAt {
		t.Fatalf("dump at %v predates the fault at %v", at, chaosFaultAt)
	}
	var sawOutage bool
	for _, c := range dump.Chaos {
		if c.Kind == "outage" && c.Backend == "be0" && c.To == "down" {
			sawOutage = true
		}
	}
	if !sawOutage {
		t.Fatalf("dump does not contain the injected be0 outage edge; chaos: %+v", dump.Chaos)
	}
	if len(dump.Spans) == 0 {
		t.Fatal("dump captured no trace spans")
	}
	if len(dump.Samples) == 0 {
		t.Fatal("dump captured no metric samples")
	}
	// Every captured record sits inside the declared window.
	from := dump.AtMS - dump.WindowMS
	for _, s := range dump.Samples {
		if s.AtMS < from || s.AtMS > dump.AtMS {
			t.Fatalf("sample at %vms outside dump window [%v, %v]", s.AtMS, from, dump.AtMS)
		}
	}
	for _, e := range dump.Spans {
		atMS := float64(e.At) / float64(time.Millisecond)
		if atMS < from || atMS > dump.AtMS {
			t.Fatalf("span at %vms outside dump window [%v, %v]", atMS, from, dump.AtMS)
		}
	}
}

// TestForensicsDeterminism asserts the whole forensics surface — dump
// bundles, exemplar-bearing snapshots, and plan-diff audit records — is
// byte-identical across runs and across runner parallelism. CI runs this
// under -race.
func TestForensicsDeterminism(t *testing.T) {
	runForensics := func(workers int) []byte {
		prev := runner.SetDefaultWorkers(workers)
		defer runner.SetDefaultWorkers(prev)
		d := chaosDeployment(t, forensicsChaosConfig())
		in := faults.New(d.Clock, d, 7)
		if err := in.Schedule(faults.Script{{At: chaosFaultAt, Kind: faults.Crash, Backend: "be0"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Run(20 * time.Second); err != nil {
			t.Fatal(err)
		}
		if len(d.Flight().Dumps()) == 0 {
			t.Fatal("no dump captured; determinism check is vacuous")
		}
		var buf bytes.Buffer
		if err := forensics.WriteDumpsJSONL(&buf, d.Flight().Dumps()); err != nil {
			t.Fatal(err)
		}
		if err := telemetry.WriteSnapshotsJSONL(&buf, d.Telemetry().Snapshots()); err != nil {
			t.Fatal(err)
		}
		if err := json.NewEncoder(&buf).Encode(d.Audit().PlanDiffs()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := runForensics(1)
	if again := runForensics(1); !bytes.Equal(serial, again) {
		t.Fatal("forensics output differs across identical serial runs")
	}
	if par := runForensics(8); !bytes.Equal(serial, par) {
		t.Fatal("forensics output differs between workers=1 and workers=8")
	}
}

// TestBlameReconcilesWithTrace drives an overloaded deployment and checks
// the critical-path decomposition against the trace's own ledger: every
// attributed request's stages sum exactly to its traced latency, and the
// session rollup preserves the invariant. The blame report is arithmetic
// on evidence, not an estimate.
func TestBlameReconcilesWithTrace(t *testing.T) {
	d, err := New(Config{
		System: Nexus, Features: AllFeatures(), GPUs: 1, Seed: 7,
		Epoch: 10 * time.Second, Warmup: -1, TraceCapacity: 1 << 18,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddSession(globalsched.SessionSpec{
		ID: "hot", ModelID: model.GoogLeNetCar, SLO: 60 * time.Millisecond, ExpectedRate: 80,
	}, workload.Uniform{Rate: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	tr := d.Tracer()
	events := tr.Events()
	if tr.Total() != uint64(len(events)) {
		t.Fatalf("ring evicted events (%d recorded, %d retained); enlarge TraceCapacity", tr.Total(), len(events))
	}
	blames := trace.AttributeBlame(events)
	if len(blames) == 0 {
		t.Fatal("no requests attributed; test is vacuous")
	}
	latency := tr.RequestLatency()
	for _, b := range blames {
		if sum := b.Admission + b.Dispatch + b.Stall + b.Queue + b.GPU; sum != b.Total {
			t.Fatalf("req %d: stages sum to %v, traced total %v", b.ReqID, sum, b.Total)
		}
		if b.Service+b.Interference != b.GPU {
			t.Fatalf("req %d: service %v + interference %v != gpu %v", b.ReqID, b.Service, b.Interference, b.GPU)
		}
		if want, ok := latency[b.ReqID]; ok && b.Total != want {
			t.Fatalf("req %d: blame total %v, tracer latency %v", b.ReqID, b.Total, want)
		}
	}
	sbs := trace.SessionBlames(blames)
	if len(sbs) != 1 || sbs[0].Session != "hot" {
		t.Fatalf("session blames: %+v, want one entry for hot", sbs)
	}
	sb := sbs[0]
	if sb.TailCount == 0 || sb.P99 <= 0 {
		t.Fatalf("degenerate tail rollup: %+v", sb)
	}
	if sum := sb.Tail.Admission + sb.Tail.Dispatch + sb.Tail.Stall + sb.Tail.Queue + sb.Tail.GPU; sum != sb.Tail.Total {
		t.Fatalf("tail stages sum to %v, total %v", sum, sb.Tail.Total)
	}
	if _, ok := latency[sb.Exemplar]; !ok {
		t.Fatalf("exemplar req %d is not a completed traced request", sb.Exemplar)
	}
}
