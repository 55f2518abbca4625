package cluster

import "nexus/internal/profiler"

// Profile returns the profile the deployment plans model id with, nil when
// it has none.
func (d *Deployment) Profile(id string) *profiler.Profile { return d.profiles[id] }
