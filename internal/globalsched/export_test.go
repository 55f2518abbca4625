package globalsched

import (
	"fmt"
	"slices"

	"nexus/internal/frontend"
	"nexus/internal/scheduler"
	"nexus/internal/session"
)

// Accessors only the tests use.

// LastMoveStats returns the moves of the last applied plan: DiffPlans
// against the plan it replaced.
func (s *Scheduler) LastMoveStats() scheduler.MoveStats { return s.lastStats }

// LastShardStats returns the planning pass of the last applied plan (zero
// value unless Partitioned).
func (s *Scheduler) LastShardStats() scheduler.ShardStats { return s.lastShard }

// Assignments returns the current node -> replica backend IDs mapping.
func (s *Scheduler) Assignments() map[string][]string {
	out := make(map[string][]string, len(s.nodeBackend))
	for k, v := range s.nodeBackend {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// OutOfSync describes how fe's routing state differs from the scheduler's
// last publish, or returns "" when fe holds exactly that table at that
// generation — the state the control plane, as the frontends' only writer,
// must keep them in.
func (s *Scheduler) OutOfSync(fe *frontend.Frontend) string {
	if gen := fe.TableVersion(); gen != s.pubGen {
		return fmt.Sprintf("frontend holds generation %d, scheduler published %d", gen, s.pubGen)
	}
	held := fe.TableSnapshot()
	for h := 0; h < max(len(held), len(s.lastTable)); h++ {
		var got, want []frontend.Route
		if h < len(held) {
			got = held[h]
		}
		if h < len(s.lastTable) {
			want = s.lastTable[h]
		}
		if !slices.Equal(got, want) {
			return fmt.Sprintf("session %s: frontend routes %v, scheduler published %v",
				s.names.ID(session.Handle(h)), got, want)
		}
	}
	return ""
}
