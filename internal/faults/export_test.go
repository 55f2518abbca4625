package faults

// Helpers only the tests use.

// ClearNetDelay explicitly clears any injected network delay, including a
// pinned permanent spike.
func (in *Injector) ClearNetDelay() {
	in.netPinned = false
	in.netUntil = 0
	in.target.SetExtraNetDelay(0)
}
