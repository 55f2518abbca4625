package cluster

import (
	"nexus/internal/globalsched"
	"nexus/internal/profiler"
)

// Profile returns the profile the deployment plans model id with, nil when
// it has none: the scheduler's resolution (globalsched.ResolveProfile).
func (d *Deployment) Profile(id string) *profiler.Profile {
	return globalsched.ResolveProfile(d.profiles, d.mdb, id)
}
