package globalsched

import (
	"time"

	"nexus/internal/scheduler"
)

// Accessors only the tests use.

// LastMoveStats returns the disturbance of the latest incremental epoch.
func (s *Scheduler) LastMoveStats() scheduler.MoveStats { return s.lastStats }

// Assignments returns the current node -> replica backend IDs mapping.
func (s *Scheduler) Assignments() map[string][]string {
	out := make(map[string][]string, len(s.nodeBackend))
	for k, v := range s.nodeBackend {
		out[k] = append([]string(nil), v...)
	}
	return out
}

// SessionSLO returns the current latency budget of a user-facing session
// (for query stages, the adaptive per-stage split of the latest epoch).
func (s *Scheduler) SessionSLO(id string) (time.Duration, bool) {
	h, ok := s.names.Lookup(id)
	if !ok || int(h) >= len(s.sessionSLO) || s.sessionSLO[h] == 0 {
		return 0, false
	}
	return s.sessionSLO[h], true
}
