package globalsched

import "nexus/internal/scheduler"

// Accessors only the tests use.

// LastMoveStats returns the disturbance of the latest incremental epoch.
func (s *Scheduler) LastMoveStats() scheduler.MoveStats { return s.lastStats }

// LastShardStats returns the accepted planning pass of the latest epoch
// (zero value unless Partitioned).
func (s *Scheduler) LastShardStats() scheduler.ShardStats { return s.lastShardStats }

// Assignments returns the current node -> replica backend IDs mapping.
func (s *Scheduler) Assignments() map[string][]string {
	out := make(map[string][]string, len(s.nodeBackend))
	for k, v := range s.nodeBackend {
		out[k] = append([]string(nil), v...)
	}
	return out
}
