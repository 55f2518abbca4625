package simclock

// Accessors only the tests read.

// Pending returns the number of scheduled, uncancelled events.
func (c *Clock) Pending() int { return c.live }
