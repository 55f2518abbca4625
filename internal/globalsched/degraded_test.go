package globalsched

import (
	"sort"
	"testing"
	"time"

	"nexus/internal/model"
)

// degradedConfig is the control-plane config the outage/partition tests
// share: heartbeat failure detection.
func degradedConfig() Config {
	cfg := nexusConfig()
	cfg.Heartbeat = 100 * time.Millisecond
	cfg.LeaseMisses = 3
	return cfg
}

// bootDegraded builds an env with one deployed session and beats flowing.
func bootDegraded(t *testing.T, cfg Config, poolSize int) *env {
	t.Helper()
	e := newEnv(t, cfg, poolSize)
	if err := e.sched.AddSession(SessionSpec{
		ID: "s", ModelID: model.ResNet50, SLO: 100 * time.Millisecond, ExpectedRate: 100,
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	e.clock.RunUntil(e.clock.Now() + time.Second) // let beats flow
	return e
}

// assignedBackends returns every assigned backend ID, sorted.
func assignedBackends(e *env) []string {
	var ids []string
	for _, beIDs := range e.sched.Assignments() {
		ids = append(ids, beIDs...)
	}
	sort.Strings(ids)
	return ids
}

// TestOutageFreezesControlPlane: while the scheduler is down, epochs are
// no-ops, lease checks do not fire (beats are lost, but nobody is declared
// dead by a dead scheduler), and recovery re-adopts every survivor.
func TestOutageFreezesControlPlane(t *testing.T) {
	e := bootDegraded(t, degradedConfig(), 4)
	before := assignedBackends(e)
	if len(before) == 0 {
		t.Fatal("no backends assigned")
	}

	if !e.sched.SetOutage(true) {
		t.Fatal("SetOutage(true) reported no change")
	}
	if e.sched.SetOutage(true) {
		t.Fatal("repeated SetOutage(true) reported a change")
	}
	if !e.sched.Down() {
		t.Fatal("scheduler not down")
	}
	epochs := e.sched.Epochs()
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatalf("down-mode RunEpoch errored: %v", err)
	}
	if e.sched.Epochs() != epochs {
		t.Fatal("epoch ran while the scheduler was down")
	}

	// Beats are dropped while down: run far past the lease, then check.
	e.clock.RunUntil(e.clock.Now() + 2*time.Second)
	e.sched.checkLeases()
	if e.sched.Failures() != 0 {
		t.Fatalf("down scheduler declared %d failures", e.sched.Failures())
	}

	if !e.sched.SetOutage(false) {
		t.Fatal("SetOutage(false) reported no change")
	}
	if e.sched.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", e.sched.Recoveries())
	}
	if got := e.sched.Reregistered(); got != len(before) {
		t.Fatalf("reregistered = %d, want %d", got, len(before))
	}
	if e.sched.StaleEchoes() != 0 {
		t.Fatalf("stale echoes = %d, want 0", e.sched.StaleEchoes())
	}
	if got := assignedBackends(e); len(got) != len(before) {
		t.Fatalf("assignments changed across clean recovery: %v -> %v", before, got)
	}
	// The frozen pre-outage beat timestamps were refreshed: the lease
	// monitor must not kill survivors for beats lost to the outage.
	e.sched.checkLeases()
	if e.sched.Failures() != 0 {
		t.Fatalf("recovery left survivors lease-expired: %d failures", e.sched.Failures())
	}
}

// TestRecoverRejectsStaleEcho: a backend that crashed AND restarted during
// the outage echoes a matching ID with the wrong incarnation; recovery
// rejects it and replaces its routes.
func TestRecoverRejectsStaleEcho(t *testing.T) {
	e := bootDegraded(t, degradedConfig(), 4)
	before := assignedBackends(e)
	victim := before[0]

	e.sched.SetOutage(true)
	be := e.pool.Get(victim)
	be.Fail()
	be.Restart() // crashed and came back empty, incarnation bumped

	e.sched.SetOutage(false)
	if e.sched.StaleEchoes() != 1 {
		t.Fatalf("stale echoes = %d, want 1", e.sched.StaleEchoes())
	}
	if got := e.sched.Reregistered(); got != len(before)-1 {
		t.Fatalf("reregistered = %d, want %d", got, len(before)-1)
	}
	// The recovery epoch replaced the rejected replica; the session is
	// still routable (the restarted node may well be re-acquired as fresh
	// capacity, but only after a full re-Configure by the plan).
	if got := e.fe.Sessions(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("routable sessions after recovery = %v", got)
	}
	if len(assignedBackends(e)) == 0 {
		t.Fatal("no backends assigned after recovery")
	}
}

// TestRecoverReleasesDeadBackend: a backend that died during the outage
// never re-registers; recovery drops it without counting a false stale
// echo and replans around the shrunken pool.
func TestRecoverReleasesDeadBackend(t *testing.T) {
	e := bootDegraded(t, degradedConfig(), 4)
	before := assignedBackends(e)
	victim := before[0]

	e.sched.SetOutage(true)
	e.pool.Get(victim).Fail() // stays dead through recovery
	e.sched.SetOutage(false)

	if e.sched.StaleEchoes() != 0 {
		t.Fatalf("dead backend counted as stale echo: %d", e.sched.StaleEchoes())
	}
	if got := e.sched.Reregistered(); got != len(before)-1 {
		t.Fatalf("reregistered = %d, want %d", got, len(before)-1)
	}
	for _, beID := range assignedBackends(e) {
		if beID == victim {
			t.Fatalf("dead backend %s still assigned after recovery", victim)
		}
	}
	if got := e.fe.Sessions(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("routable sessions after recovery = %v", got)
	}
}

// TestCutControlFalsePositive: severing one backend's control link stops
// its beats while it keeps serving, so the lease monitor declares it dead
// — the false positive the heal handshake must reconcile.
func TestCutControlFalsePositive(t *testing.T) {
	e := bootDegraded(t, degradedConfig(), 4)
	victim := assignedBackends(e)[0]

	if !e.sched.CutControl(victim, true) {
		t.Fatal("CutControl(cut) reported no change")
	}
	if e.sched.CutControl(victim, true) {
		t.Fatal("repeated CutControl(cut) reported a change")
	}
	e.clock.RunUntil(e.clock.Now() + time.Second) // beats now dropped
	e.sched.checkLeases()
	if e.sched.Failures() != 1 {
		t.Fatalf("failures = %d, want 1 false positive", e.sched.Failures())
	}
	if !e.pool.Get(victim).Alive() && e.pool.Get(victim) != nil {
		t.Fatal("false-positive victim actually died")
	}
	if !e.sched.CutControl(victim, false) {
		t.Fatal("CutControl(heal) reported no change")
	}
}

// TestReregisterHandshake covers the partition-heal accept and reject
// paths: matching incarnation refreshes the lease; a restarted instance or
// an unassigned node is a stale echo.
func TestReregisterHandshake(t *testing.T) {
	e := bootDegraded(t, degradedConfig(), 4)
	victim := assignedBackends(e)[0]
	inc := e.pool.Get(victim).Incarnation()

	// Cut the link but heal before the lease expires: accepted.
	e.sched.CutControl(victim, true)
	e.clock.RunUntil(e.clock.Now() + 200*time.Millisecond)
	e.sched.CutControl(victim, false)
	if !e.sched.Reregister(victim, inc) {
		t.Fatal("matching re-registration rejected")
	}
	if e.sched.Reregistered() != 1 {
		t.Fatalf("reregistered = %d, want 1", e.sched.Reregistered())
	}
	e.sched.checkLeases()
	if e.sched.Failures() != 0 {
		t.Fatalf("healed backend still declared dead: %d failures", e.sched.Failures())
	}

	// Wrong incarnation (restarted behind the partition): rejected.
	if e.sched.Reregister(victim, inc+1) {
		t.Fatal("wrong-incarnation re-registration accepted")
	}
	// Never-assigned node: rejected.
	if e.sched.Reregister("ghost", 0) {
		t.Fatal("unassigned re-registration accepted")
	}
	if e.sched.StaleEchoes() != 2 {
		t.Fatalf("stale echoes = %d, want 2", e.sched.StaleEchoes())
	}
}

// TestRecoveryCappedPublish: the first post-outage publish is rate-limited
// to RecoveryMaxRouteChanges session changes; staged flushes converge the
// frontends onto the full recovery table.
func TestRecoveryCappedPublish(t *testing.T) {
	cfg := degradedConfig()
	cfg.Heartbeat = 0 // no beats: isolate the publish path
	cfg.RecoveryMaxRouteChanges = 1
	e := newEnv(t, cfg, 8)
	sessions := []string{"s0", "s1", "s2"}
	models := []string{model.ResNet50, model.InceptionV3, model.Darknet53}
	for i, sid := range sessions {
		if err := e.sched.AddSession(SessionSpec{
			ID: sid, ModelID: models[i], SLO: 150 * time.Millisecond, ExpectedRate: 100,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.sched.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	e.clock.RunUntil(time.Second)

	// Outage: every backend crashes and restarts, so recovery rejects all
	// echoes and must republish routes for every session.
	e.sched.SetOutage(true)
	for _, beID := range assignedBackends(e) {
		be := e.pool.Get(beID)
		be.Fail()
		be.Restart()
	}
	e.sched.SetOutage(false)

	if e.sched.CappedPushes() == 0 {
		t.Fatal("recovery publish was not rate-limited")
	}
	if !e.sched.recoveryPending {
		t.Fatal("capped recovery cleared recoveryPending before converging")
	}
	// Staged flushes land every recoveryFlushDelay until the diff drains.
	e.clock.RunUntil(e.clock.Now() + 10*recoveryFlushDelay)
	if e.sched.recoveryPending {
		t.Fatal("staged flushes never converged")
	}
	got := e.fe.Sessions()
	if len(got) != len(sessions) {
		t.Fatalf("routable sessions after convergence = %v, want %v", got, sessions)
	}
	// The frontend's table matches the scheduler's published view.
	for sid, routes := range e.sched.lastTable {
		if len(routes) == 0 {
			t.Fatalf("session %s converged with no routes", sid)
		}
	}
}

// TestEmptyDeltaEpochRenewsLease: an epoch whose routing delta is empty
// pushes nothing but still renews the frontends' route leases, so a
// healthy idle scheduler never lets a lease lapse.
func TestEmptyDeltaEpochRenewsLease(t *testing.T) {
	cfg := degradedConfig()
	cfg.Heartbeat = 0
	e := bootDegraded(t, cfg, 4)
	e.fe.EnableRouteLease(30*time.Second, false)

	// Find a steady-state epoch (quiet rates settle after the first decay).
	renewed := false
	for i := 0; i < 6; i++ {
		e.clock.RunUntil(e.clock.Now() + 10*time.Second)
		before := e.fe.TableVersion()
		if err := e.sched.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if e.fe.TableVersion() == before {
			if e.fe.RouteStaleness() != 0 {
				t.Fatalf("empty-delta epoch left staleness %v", e.fe.RouteStaleness())
			}
			renewed = true
			break
		}
	}
	if !renewed {
		t.Fatal("no steady-state epoch exercised the renew path")
	}
}
