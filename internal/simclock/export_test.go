package simclock

// Accessors only the tests read.

// Pending returns the number of scheduled, uncancelled events: those at
// the cursor, in either wheel level and in the overflow heap.
func (c *Clock) Pending() int {
	n := 0
	count := func(evs []*event) {
		for _, e := range evs {
			if !e.cancelled {
				n++
			}
		}
	}
	count(c.curHeap.ev)
	for i := range c.level0 {
		count(c.level0[i])
		count(c.level1[i])
	}
	count(c.far.ev)
	return n
}
