package cluster

import (
	"fmt"
	"sort"
	"time"

	"nexus/internal/faults"
	"nexus/internal/trace"
)

// This file is the deployment's fault-injection surface: the methods the
// faults.Injector drives to crash, restart, and degrade a running cluster.
// All of them execute on the simulation clock's thread (fault events are
// scheduled clock callbacks), so no synchronization is needed.

// BackendIDs returns the IDs of the backends currently in use, sorted, so
// seeded random target selection is deterministic.
func (d *Deployment) BackendIDs() []string {
	ids := make([]string, 0, len(d.Pool.backends))
	for id := range d.Pool.backends {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CrashBackend crashes a backend: queued and in-flight requests are lost
// as failures and the node serves nothing until restarted. Returns false
// when the ID is not an in-use, live backend.
func (d *Deployment) CrashBackend(id string) bool {
	be := d.Pool.Get(id)
	if be == nil || !be.Alive() {
		return false
	}
	be.Fail()
	d.chaos(trace.ChaosRecord{Kind: "outage", Backend: id, To: "down"})
	return true
}

// RestartBackend revives a crashed backend (transient-failure model): it
// rejoins empty, either in place (crash not yet detected) or via the
// pool's free list (crash detected and parked). Returns false when the ID
// is unknown or the backend is not dead.
func (d *Deployment) RestartBackend(id string) bool {
	if !d.Pool.Restart(id) {
		return false
	}
	d.chaos(trace.ChaosRecord{Kind: "outage", Backend: id, To: "up"})
	return true
}

// SlowBackend makes a backend's GPU a straggler: work submitted from now
// on takes factor times as long (factor ≤ 1 restores nominal speed).
// Returns false when the ID is not an in-use backend.
func (d *Deployment) SlowBackend(id string, factor float64) bool {
	be := d.Pool.Get(id)
	if be == nil {
		return false
	}
	be.Device().SetSlowdown(factor)
	d.chaos(trace.ChaosRecord{Kind: "straggler", Backend: id,
		To: fmt.Sprintf("x%g", factor)})
	return true
}

// SetExtraNetDelay injects a network-delay spike on every frontend
// dispatch hop; d ≤ 0 clears it.
func (d *Deployment) SetExtraNetDelay(delay time.Duration) {
	for _, fe := range d.Frontends {
		fe.SetExtraDelay(delay)
	}
}

// Failures returns how many backends the control plane has declared dead.
func (d *Deployment) Failures() int { return d.Sched.Failures() }

// ---------------------------------------------------------------------
// Degraded-mode fault surface: scheduler outages, link partitions, surges.

// chaos records one degraded-mode event on the audit plane's chaos
// timeline (no-op when auditing is off).
func (d *Deployment) chaos(r trace.ChaosRecord) {
	if d.audit == nil {
		return
	}
	r.AtMS = trace.MS(d.Clock.Now())
	d.audit.RecordChaos(r)
}

// SetSchedulerOutage takes the global scheduler down (true) or brings it
// back up (false, running re-registration recovery). Returns false when
// the scheduler was already in that state.
func (d *Deployment) SetSchedulerOutage(down bool) bool {
	changed := d.Sched.SetOutage(down)
	if changed {
		to := "up"
		if down {
			to = "down"
		}
		d.chaos(trace.ChaosRecord{Kind: "outage", To: to})
	}
	return changed
}

// CutLink severs (cut) or heals one link pair to a backend. ControlLink
// stops the backend's heartbeats from reaching the scheduler while the
// node keeps serving — and quarantines it in the pool, since the cluster
// manager cannot reach an unreachable node either. Healing runs the
// incarnation-checked re-registration handshake: a node the scheduler
// falsely declared dead and replaced is rejected as a stale echo and
// reclaimed as fresh capacity. DataLink makes frontend dispatches to the
// backend fail while its heartbeats still flow.
func (d *Deployment) CutLink(link faults.Link, beID string, cut bool) bool {
	switch link {
	case faults.ControlLink:
		changed := d.Sched.CutControl(beID, cut)
		if !changed {
			return false
		}
		d.Pool.Isolate(beID, cut)
		d.chaos(trace.ChaosRecord{Kind: "partition", Backend: beID,
			From: "control", To: linkEdge(cut)})
		if !cut {
			d.healControl(beID)
		}
		return true
	case faults.DataLink:
		changed := false
		for _, fe := range d.Frontends {
			changed = fe.SetLinkDown(beID, cut) || changed
		}
		if changed {
			d.chaos(trace.ChaosRecord{Kind: "partition", Backend: beID,
				From: "data", To: linkEdge(cut)})
		}
		return changed
	}
	return false
}

// linkEdge names a partition edge for the chaos timeline.
func linkEdge(cut bool) string {
	if cut {
		return "cut"
	}
	return "healed"
}

// healControl reconciles a backend whose control link just healed. A
// surviving adopted instance re-registers (lease refreshed); a stale echo
// — the scheduler declared it dead and replaced it, or it restarted
// behind the partition — is rejected, its split-brain state wiped, and
// the node reclaimed as fresh pool capacity.
func (d *Deployment) healControl(beID string) {
	be := d.Pool.Get(beID)
	if be != nil && be.Alive() {
		if d.Sched.Reregister(beID, be.Incarnation()) {
			return
		}
		// Still assigned in the data plane's map but rejected: restarted
		// behind the partition. Wipe its stale units; the next epoch will
		// reconfigure whatever the plan wants on it.
		_ = be.Configure(nil)
		return
	}
	// Not in the in-use map: the lease monitor declared it dead during the
	// partition and released it into the lost set. The echo is stale by
	// construction; reclaim the node as fresh capacity.
	if d.Pool.Lost(beID) {
		d.Sched.Reregister(beID, ^uint32(0)) // counted as a stale echo
		d.Pool.Reclaim(beID)
	}
}

// SetRateMultiplier scales the offered arrival rate of one session's
// generator (session "" scales every generator); factor 1 restores the
// nominal process. Returns false when no running generator matches —
// before Run starts, or for an unknown session.
func (d *Deployment) SetRateMultiplier(session string, factor float64) bool {
	applied := false
	for _, g := range d.gens {
		if session != "" && g.Session != session {
			continue
		}
		g.SetRateMultiplier(factor)
		applied = true
	}
	if applied {
		d.chaos(trace.ChaosRecord{Kind: "surge", Session: session,
			To: fmt.Sprintf("x%g", factor)})
	}
	return applied
}
