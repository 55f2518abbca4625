// Degraded-mode control plane: scheduler outages with re-registration
// recovery and control-link partitions with incarnation-checked
// split-brain reconciliation. Everything here is a no-op for deployments
// that never inject these faults, so fault-free runs keep byte-identical
// outputs.
package globalsched

// Down reports whether the scheduler is currently in an outage.
func (s *Scheduler) Down() bool { return s.down }

// Recoveries returns how many outage recoveries have run.
func (s *Scheduler) Recoveries() int { return s.recoveries }

// StaleEchoes returns how many re-registrations were rejected because the
// backend's incarnation no longer matched the adopted instance (it crashed
// and restarted behind the scheduler's back).
func (s *Scheduler) StaleEchoes() int { return s.staleEchoes }

// Reregistered returns how many backends re-registered successfully across
// outage recoveries and partition heals.
func (s *Scheduler) Reregistered() int { return s.reregistered }

// SetOutage takes the scheduler down (true) or brings it back up (false).
// While down, epoch planning, route publishing, lease monitoring, and
// heartbeat intake all stop — the data plane keeps serving on its last
// routing table. Coming back up runs recovery: state is reconstructed from
// backend re-registration, stale echoes are rejected, and the first
// post-outage plan publishes its delta in one push. Reports whether the
// state changed.
func (s *Scheduler) SetOutage(down bool) bool {
	if s.down == down {
		return false
	}
	s.down = down
	if !down {
		s.recover()
	}
	return true
}

// recover is the restart path: the scheduler's liveness view is rebuilt
// from what each assigned backend reports at re-registration — its ID and
// incarnation. A backend that died during the outage is released; one that
// crashed AND restarted is alive but empty, so its matching-ID echo is
// stale (wrong incarnation) and rejected back to the free pool; a
// surviving instance is re-adopted with a fresh lease grace period. Then
// the first post-outage epoch runs immediately and publishes like any
// other epoch. If that epoch fails, the last plan's routes go out without
// the dropped replicas instead.
func (s *Scheduler) recover() {
	s.recoveries++
	now := s.clock.Now()
	dropped := 0
	for _, nodeID := range s.sortedNodes() {
		for _, beID := range s.nodeBackend[nodeID] {
			be := s.pool.Get(beID)
			inc, known := s.lastInc[beID]
			switch {
			case be == nil || !be.Alive():
				// Died during the outage: nothing re-registers.
				s.dropReplica(nodeID, beID)
				dropped++
			case known && be.Incarnation() != inc:
				// Alive, but not the instance this scheduler configured:
				// it crashed and restarted mid-outage and now serves
				// nothing. Reject the stale echo; the node rejoins the
				// pool as fresh capacity and the recovery plan replaces it.
				s.staleEchoes++
				s.dropReplica(nodeID, beID)
				dropped++
			default:
				s.reregistered++
				if s.cfg.Heartbeat > 0 {
					// Fresh grace period: the frozen pre-outage beat
					// timestamp must not count as missed beats.
					s.lastBeat[beID] = now
				}
			}
		}
	}
	if err := s.RunEpoch(); err != nil && dropped > 0 && s.prevPlan != nil {
		// No recovery plan went out, so the frontends still route to the
		// dropped replicas: publish the last plan without them.
		_ = s.publishRoutes(s.prevPlan)
	}
}

// CutControl severs (cut) or restores the scheduler<->backend control link
// for one backend: its beats stop arriving while it keeps serving, so the
// lease monitor eventually declares it dead — a false positive the heal
// path reconciles via Reregister. Reports whether the state changed.
func (s *Scheduler) CutControl(beID string, cut bool) bool {
	if s.cutCtrl[beID] == cut {
		return false
	}
	if cut {
		s.cutCtrl[beID] = true
	} else {
		delete(s.cutCtrl, beID)
	}
	return true
}

// Reregister is the partition-heal handshake: a backend whose control link
// just healed reports (id, incarnation). If the scheduler still has it
// assigned and the incarnation matches the adopted instance, it is
// re-adopted (lease refreshed) and true is returned. Otherwise — it was
// declared dead and replaced, or it restarted behind the partition — the
// echo is stale: the scheduler rejects it and the caller returns the node
// to the pool as fresh capacity.
func (s *Scheduler) Reregister(beID string, inc uint32) bool {
	assigned := false
	for _, beIDs := range s.nodeBackend {
		for _, id := range beIDs {
			if id == beID {
				assigned = true
			}
		}
	}
	want, known := s.lastInc[beID]
	if !assigned || !known || want != inc {
		s.staleEchoes++
		return false
	}
	s.reregistered++
	if s.cfg.Heartbeat > 0 {
		s.lastBeat[beID] = s.clock.Now()
	}
	return true
}

// renewLeases refreshes every frontend's routing-table lease without
// pushing anything: called on empty-delta epochs, so a healthy scheduler
// with a stable plan never lets leases lapse. No-op on frontends without
// leases enabled.
func (s *Scheduler) renewLeases() {
	for _, fe := range s.frontends {
		fe.RenewRouteLease()
	}
}
