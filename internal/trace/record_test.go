package trace

// Record appends an event, interning its strings (no-op on a nil tracer).
// It is the tests' slow path beside Put; the filter runs first, so a
// discarded event interns nothing.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	if t.filter != nil && !t.filter(e.ReqID) {
		return
	}
	*t.slot() = pack(&e, t.names, t.sessions)
}
