package cluster

import (
	"testing"
	"time"

	"nexus/internal/backend"
	"nexus/internal/faults"
	"nexus/internal/globalsched"
	"nexus/internal/gpusim"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/simclock"
	"nexus/internal/workload"
)

// chaosDeployment builds a small Nexus cluster with one ResNet-50 session
// and a scripted crash of a fully-loaded backend mid-run. It is sized to
// stay fast enough for -short CI runs under -race.
func chaosDeployment(t *testing.T, cfg Config) *Deployment {
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

const chaosFaultAt = 9 * time.Second // absolute sim time (2s warmup + 7s)

// TestCrashRecoveryWithinTwoEpochs is the headline robustness criterion:
// with heartbeat detection, crashing 1 of N backends mid-run restores at
// least 95% of the pre-fault goodput within two control-plane epochs.
func TestCrashRecoveryWithinTwoEpochs(t *testing.T) {
	epoch := 5 * time.Second
	d := chaosDeployment(t, Config{
		System: Nexus, Features: AllFeatures(), GPUs: 4, Seed: 7, Epoch: epoch,
		Heartbeat: 100 * time.Millisecond, LeaseMisses: 3, RetryBudget: 1,
	})
	in := faults.New(d.Clock, d, 7)
	if err := in.Schedule(faults.Script{{At: chaosFaultAt, Kind: faults.Crash, Backend: "be0"}}); err != nil {
		t.Fatal(err)
	}
	bad, err := d.Run(20 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	log := in.Log()
	if len(log) != 1 || !log[0].Applied {
		t.Fatalf("injection log = %+v, want one applied crash", log)
	}
	if d.Failures() != 1 {
		t.Fatalf("detected failures = %d, want 1", d.Failures())
	}
	rec, ok := metrics.RecoveryTime(d.GoodEvts, chaosFaultAt, 3*time.Second, 0.95)
	if !ok {
		t.Fatal("goodput never regained 95% of its pre-fault mean")
	}
	if rec > 2*epoch {
		t.Fatalf("recovery took %v, want <= 2 epochs (%v)", rec, 2*epoch)
	}
	if bad > 0.05 {
		t.Fatalf("bad rate %.3f, want < 5%% end to end", bad)
	}
}

// TestCrashRecoveryDeterministic pins the chaos path to the repo-wide
// determinism contract: same seed, same script, same event count, same
// statistics on every run.
func TestCrashRecoveryDeterministic(t *testing.T) {
	run := func() (float64, uint64, int) {
		d := chaosDeployment(t, Config{
			System: Nexus, Features: AllFeatures(), GPUs: 4, Seed: 7, Epoch: 5 * time.Second,
			Heartbeat: 100 * time.Millisecond, LeaseMisses: 3, RetryBudget: 1,
		})
		in := faults.New(d.Clock, d, 7)
		if err := in.Schedule(faults.Script{{At: chaosFaultAt, Kind: faults.Crash}}); err != nil {
			t.Fatal(err)
		}
		bad, err := d.Run(15 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return bad, d.Clock.Executed(), d.Failures()
	}
	bad1, evts1, fail1 := run()
	bad2, evts2, fail2 := run()
	if bad1 != bad2 || evts1 != evts2 || fail1 != fail2 {
		t.Fatalf("runs diverged: bad %v vs %v, events %d vs %d, failures %d vs %d",
			bad1, bad2, evts1, evts2, fail1, fail2)
	}
}

// TestEpochSweepRecoversWithoutHeartbeat covers the no-detection baseline:
// a crash is noticed only at the next epoch boundary, in-flight and routed
// requests are lost as failures, and the sweep still restores service.
func TestEpochSweepRecoversWithoutHeartbeat(t *testing.T) {
	epoch := 5 * time.Second
	d := chaosDeployment(t, Config{
		System: Nexus, Features: AllFeatures(), GPUs: 4, Seed: 7, Epoch: epoch,
	})
	in := faults.New(d.Clock, d, 7)
	if err := in.Schedule(faults.Script{{At: chaosFaultAt, Kind: faults.Crash, Backend: "be0"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if d.Failures() != 0 {
		t.Fatalf("heartbeat-less deployment detected %d failures", d.Failures())
	}
	s := d.Recorder.Session("s")
	if s.Failed == 0 {
		t.Fatal("no requests accounted as failure-lost despite a dead backend")
	}
	rec, ok := metrics.RecoveryTime(d.GoodEvts, chaosFaultAt, 3*time.Second, 0.95)
	if !ok {
		t.Fatal("goodput never recovered after the epoch sweep")
	}
	// The fault lands 4s before an epoch boundary (t=10s); allow the sweep
	// epoch plus settling.
	if rec > epoch+3*time.Second {
		t.Fatalf("epoch-sweep recovery took %v", rec)
	}
}

// TestTransientRestartRejoinsPool covers the transient-failure model at
// the pool level: a crashed backend parked by Release is revived by
// Restart and becomes grantable again.
func TestTransientRestartRejoinsPool(t *testing.T) {
	clock := simclock.New()
	pool := NewPool(clock, 2, profiler.GTX1080Ti, gpusim.Exclusive, backend.Config{}, nil)
	id1, be1, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pool.Acquire(); err != nil {
		t.Fatal(err)
	}
	be1.Fail()
	pool.Release(id1)
	if pool.Capacity() != 1 {
		t.Fatalf("Capacity with a dead backend = %d, want 1", pool.Capacity())
	}
	if _, _, err := pool.Acquire(); err == nil {
		t.Fatal("dead backend handed out")
	}
	if !pool.Restart(id1) {
		t.Fatal("Restart refused a parked dead backend")
	}
	if pool.Capacity() != 2 {
		t.Fatalf("Capacity after restart = %d, want 2", pool.Capacity())
	}
	id3, be3, err := pool.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 || !be3.Alive() {
		t.Fatalf("reacquired %s alive=%v, want revived %s", id3, be3.Alive(), id1)
	}
	// In-place restart: a crash not yet detected is revived without a
	// Release/Acquire cycle.
	be3.Fail()
	if !pool.Restart(id3) {
		t.Fatal("in-place Restart refused")
	}
	if !be3.Alive() {
		t.Fatal("backend still dead after in-place restart")
	}
}
