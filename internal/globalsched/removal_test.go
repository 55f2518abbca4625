package globalsched

import (
	"testing"
	"time"
)

// TestReplicaRemovalForgetsBackend drives every way a backend leaves the
// scheduler (lease expiry, the epoch sweep of dead replicas, outage
// recovery and an apply that shrinks a node's replica set) and checks that
// afterwards no frontend route names it and the scheduler keeps no
// heartbeat, incarnation or node-assignment entry for it.
func TestReplicaRemovalForgetsBackend(t *testing.T) {
	for _, tc := range []struct {
		name string
		// remove makes the scheduler drop one replica and returns its ID.
		remove func(t *testing.T, e *env, replicas []string) string
	}{
		{"lease-expiry", func(t *testing.T, e *env, replicas []string) string {
			victim := replicas[0]
			e.pool.Get(victim).Fail()
			e.clock.RunUntil(e.clock.Now() + time.Second)
			e.sched.checkLeases()
			if e.sched.Failures() != 1 {
				t.Fatalf("lease monitor declared %d failures, want 1", e.sched.Failures())
			}
			return victim
		}},
		{"epoch-sweep", func(t *testing.T, e *env, replicas []string) string {
			victim := replicas[1]
			e.pool.Get(victim).Fail()
			if err := e.sched.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			return victim
		}},
		{"outage-recover", func(t *testing.T, e *env, replicas []string) string {
			victim := replicas[2]
			e.sched.SetOutage(true)
			e.pool.Get(victim).Fail()
			e.sched.SetOutage(false)
			return victim
		}},
		{"apply-shrink", func(t *testing.T, e *env, replicas []string) string {
			victim := replicas[len(replicas)-1]
			e.pool.capacity--
			if err := e.sched.RunEpoch(); err != nil {
				t.Fatal(err)
			}
			return victim
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := degradedConfig()
			cfg.SpreadReplicas = true
			e := bootDegraded(t, cfg, 4)
			replicas := assignedBackends(e)
			if len(replicas) != 4 {
				t.Fatalf("replicas = %v, want the session spread over 4", replicas)
			}
			for _, id := range replicas {
				if _, ok := e.sched.lastBeat[id]; !ok {
					t.Fatalf("replica %s has no heartbeat entry before the removal", id)
				}
			}
			victim := tc.remove(t, e, replicas)

			for _, id := range assignedBackends(e) {
				if id == victim {
					t.Errorf("%s is still assigned to a node", victim)
				}
			}
			if _, ok := e.sched.lastBeat[victim]; ok {
				t.Errorf("%s still has a heartbeat entry", victim)
			}
			if _, ok := e.sched.lastInc[victim]; ok {
				t.Errorf("%s still has an incarnation entry", victim)
			}
			if diff := e.sched.OutOfSync(e.fe); diff != "" {
				t.Error(diff)
			}
			routed := 0
			for _, routes := range e.fe.TableSnapshot() {
				for _, r := range routes {
					routed++
					if r.BackendID == victim {
						t.Errorf("a frontend route still names %s", victim)
					}
				}
			}
			if routed == 0 {
				t.Error("the session lost every route, not just the removed replica's")
			}
		})
	}
}
