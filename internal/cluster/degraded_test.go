package cluster

import (
	"testing"
	"time"

	"nexus/internal/faults"
	"nexus/internal/frontend"
	"nexus/internal/globalsched"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/workload"
)

// fullFT is the full degraded-mode survival configuration: heartbeat
// failure detection, route leases with stale serving,
// backoff retries, circuit breakers, and a rate-limited recovery publish.
func fullFT() Config {
	return Config{
		System: Nexus, Features: AllFeatures(), GPUs: 4, Seed: 7, Epoch: 5 * time.Second,
		Heartbeat: 100 * time.Millisecond, LeaseMisses: 3,
		RouteLeaseTTL:           8 * time.Second,
		ServeStale:              true,
		RetryBudget:             3,
		RetryBackoff:            time.Millisecond,
		BreakerThreshold:        3,
		BreakerCooloff:          time.Second,
		RecoveryMaxRouteChanges: 4,
	}
}

// degradedDeployment adds one ResNet-50 session to a deployment config.
func degradedDeployment(t *testing.T, cfg Config) *Deployment {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AddSession(globalsched.SessionSpec{
		ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 1500,
	}, workload.Uniform{Rate: 1500}); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestOutageSurvivalServeStale: a 15s scheduler outage under the full-FT
// config barely dents goodput — the data plane keeps serving on its stale
// (but still valid) routing table, and recovery re-adopts every backend.
func TestOutageSurvivalServeStale(t *testing.T) {
	cfg := fullFT()
	cfg.Audit = true
	d := degradedDeployment(t, cfg)
	in := faults.New(d.Clock, d, 7)
	if err := in.Schedule(faults.Script{
		{At: chaosFaultAt, Kind: faults.SchedulerOutage, Duration: 15 * time.Second},
	}); err != nil {
		t.Fatal(err)
	}
	bad, err := d.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	log := in.Log()
	if len(log) != 1 || !log[0].Applied {
		t.Fatalf("injection log = %+v, want one applied outage", log)
	}
	if d.Sched.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", d.Sched.Recoveries())
	}
	if d.Sched.Reregistered() == 0 {
		t.Fatal("no backends re-registered after the outage")
	}
	if d.Sched.StaleEchoes() != 0 {
		t.Fatalf("stale echoes = %d, want 0 (nothing crashed)", d.Sched.StaleEchoes())
	}
	// The lease expired mid-outage (TTL 8s < 15s) but serve-stale kept
	// routing on the frozen table.
	if d.Frontend.StaleServed() == 0 {
		t.Fatal("no stale-served dispatches despite an outage longer than the lease")
	}
	if bad > 0.05 {
		t.Fatalf("bad rate %.3f under outage with serve-stale, want < 5%%", bad)
	}
	// The chaos timeline records the outage edges.
	var down, up bool
	for _, c := range d.Audit().Chaos() {
		if c.Kind == "outage" {
			down = down || c.To == "down"
			up = up || c.To == "up"
		}
	}
	if !down || !up {
		t.Fatalf("chaos timeline missing outage edges: %+v", d.Audit().Chaos())
	}
}

// TestOutageLeaseExpiryCollapses: the same outage without stale serving —
// once the lease lapses, the frontend stops trusting its table and every
// dispatch drops unroutable until the scheduler returns.
func TestOutageLeaseExpiryCollapses(t *testing.T) {
	cfg := fullFT()
	cfg.ServeStale = false
	cfg.RouteLeaseTTL = 5 * time.Second
	d := degradedDeployment(t, cfg)
	in := faults.New(d.Clock, d, 7)
	if err := in.Schedule(faults.Script{
		{At: chaosFaultAt, Kind: faults.SchedulerOutage, Duration: 15 * time.Second},
	}); err != nil {
		t.Fatal(err)
	}
	bad, err := d.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s := d.Recorder.Session("s")
	// ~10s of a 30s measured window is unroutable: attainment collapses.
	if s.Unroutable == 0 {
		t.Fatal("no unroutable drops despite lease expiry without stale serving")
	}
	if bad < 0.20 {
		t.Fatalf("bad rate %.3f, want the no-repair posture to collapse (>= 20%%)", bad)
	}
}

// TestControlPartitionFalsePositiveReconciles: severing one backend's
// control link makes the lease monitor declare it dead while it still
// serves (false positive); its replacement keeps the session routable, and
// at heal time the incarnation-checked handshake rejects the stale echo and
// reclaims the node as fresh capacity.
func TestControlPartitionFalsePositiveReconciles(t *testing.T) {
	cfg := fullFT()
	cfg.Audit = true
	d := degradedDeployment(t, cfg)
	in := faults.New(d.Clock, d, 7)
	if err := in.Schedule(faults.Script{
		{At: chaosFaultAt, Kind: faults.Partition, Link: faults.ControlLink, Backend: "be0", Duration: 6 * time.Second},
	}); err != nil {
		t.Fatal(err)
	}
	bad, err := d.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d.Failures() != 1 {
		t.Fatalf("failures = %d, want exactly the one false positive", d.Failures())
	}
	if d.Sched.StaleEchoes() == 0 {
		t.Fatal("heal handshake never rejected the replaced node's echo")
	}
	if d.Pool.Lost("be0") {
		t.Fatal("be0 still in the lost set after the heal reclaimed it")
	}
	// The false positive costs a detection window, not the run: goodput
	// recovers once the replacement is configured.
	if _, ok := metrics.RecoveryTime(d.GoodEvts, chaosFaultAt, 3*time.Second, 0.95); !ok {
		t.Fatal("goodput never recovered from the false-positive failover")
	}
	if bad > 0.10 {
		t.Fatalf("bad rate %.3f across a control partition, want < 10%%", bad)
	}
}

// TestDataPartitionBreakersRouteAround: cutting the frontend<->backend
// link leaves the scheduler's view healthy, so nothing is replanned — the
// frontend's own retry budget and breakers must carry the load to the
// surviving replicas.
func TestDataPartitionBreakersRouteAround(t *testing.T) {
	d := degradedDeployment(t, fullFT())
	in := faults.New(d.Clock, d, 7)
	if err := in.Schedule(faults.Script{
		{At: chaosFaultAt, Kind: faults.Partition, Link: faults.DataLink, Backend: "be0", Duration: 6 * time.Second},
	}); err != nil {
		t.Fatal(err)
	}
	bad, err := d.Run(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler heard every heartbeat: no false positive, no failover.
	if d.Failures() != 0 {
		t.Fatalf("failures = %d, want 0 (control plane saw a healthy node)", d.Failures())
	}
	if d.Frontend.Retries() == 0 {
		t.Fatal("no dispatch retries despite a cut data link")
	}
	s := d.Recorder.Session("s")
	// Retries + breakers route around the cut; only the first few
	// dispatches (before the breaker opens) may be lost.
	if s.Failed > 20 {
		t.Fatalf("failure drops = %d, want the breaker to cap the bleed", s.Failed)
	}
	if bad > 0.40 {
		t.Fatalf("bad rate %.3f across a data partition, want the surviving replicas to carry most load", bad)
	}
}

// TestSurgeShedsLowPriorityFirst: a 3x surge on the low-priority session
// is shed by its token bucket; the high-priority session, entitled to the
// reserve, stays within its nominal goodput.
func TestSurgeShedsLowPriorityFirst(t *testing.T) {
	cfg := fullFT()
	cfg.GPUs = 6
	cfg.Admission = map[string]frontend.AdmissionConfig{
		"hi": {Rate: 1000, Burst: 100, Priority: 1},
		"lo": {Rate: 1000, Burst: 100, Priority: 0},
	}
	cfg.AdmissionReserveRate = 200
	cfg.AdmissionReserveBurst = 200
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range []string{"hi", "lo"} {
		if err := d.AddSession(globalsched.SessionSpec{
			ID: sid, ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 800,
		}, workload.Uniform{Rate: 800}); err != nil {
			t.Fatal(err)
		}
	}
	in := faults.New(d.Clock, d, 7)
	if err := in.Schedule(faults.Script{
		{At: chaosFaultAt, Kind: faults.Surge, Session: "lo", Factor: 3, Duration: 10 * time.Second},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	lo, hi := d.Recorder.Session("lo"), d.Recorder.Session("hi")
	if lo.Admission == 0 {
		t.Fatal("surge produced no admission sheds on the low-priority session")
	}
	if hi.Admission != 0 {
		t.Fatalf("high-priority session shed %d requests, want 0", hi.Admission)
	}
	// hi's goodput is unaffected: its bad fraction stays nominal.
	hiBad := float64(hi.Bad()) / float64(hi.Sent)
	if hiBad > 0.05 {
		t.Fatalf("high-priority bad rate %.3f during the surge, want < 5%%", hiBad)
	}
	// lo's shed requests bound its queue damage: everything admitted is
	// within the bucket rate the cluster was sized for.
	loBad := float64(lo.Bad()) / float64(lo.Sent)
	if loBad <= hiBad {
		t.Fatal("surge shed nothing: lo should pay for its own overload")
	}
}

// TestDegradedChaosDeterministic pins the whole degraded stack (outage +
// partitions + surge in one script) to the repo-wide determinism contract.
func TestDegradedChaosDeterministic(t *testing.T) {
	script := faults.Script{
		{At: chaosFaultAt, Kind: faults.SchedulerOutage, Duration: 8 * time.Second},
		{At: chaosFaultAt + 2*time.Second, Kind: faults.Partition, Link: faults.DataLink, Backend: "be1", Duration: 4 * time.Second},
		{At: 20 * time.Second, Kind: faults.Partition, Link: faults.ControlLink, Backend: "be0", Duration: 3 * time.Second},
		{At: 21 * time.Second, Kind: faults.Surge, Factor: 2, Duration: 3 * time.Second},
	}
	run := func() (float64, uint64, int, int) {
		d := degradedDeployment(t, fullFT())
		in := faults.New(d.Clock, d, 7)
		if err := in.Schedule(script); err != nil {
			t.Fatal(err)
		}
		bad, err := d.Run(30 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return bad, d.Clock.Executed(), d.Failures(), d.Sched.StaleEchoes()
	}
	b1, e1, f1, s1 := run()
	b2, e2, f2, s2 := run()
	if b1 != b2 || e1 != e2 || f1 != f2 || s1 != s2 {
		t.Fatalf("degraded chaos diverged: (%.6f,%d,%d,%d) vs (%.6f,%d,%d,%d)",
			b1, e1, f1, s1, b2, e2, f2, s2)
	}
}
