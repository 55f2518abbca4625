package cluster

import (
	"sort"
	"strconv"
	"time"

	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

// telemetrySampler is the pull side of the telemetry plane: every sampling
// tick it reads counters the simulation already maintains — the metrics
// recorder, frontend dispatch state, backend queues and devices, the
// scheduler — into the registry, then hands the collector a snapshot. No
// hot-path instrumentation is needed beyond the batch-grain execute-
// latency hook, so an enabled plane still never perturbs event order.
type telemetrySampler struct {
	d *Deployment

	// prevBusy/prevBatches/prevItems are the per-backend cumulative values
	// at the previous sample, for windowed duty/batch-size gauges.
	prevBusy    map[string]time.Duration
	prevBatches map[string]uint64
	prevItems   map[string]uint64
	// seen tracks every backend ID ever sampled, so a released or parked
	// backend keeps exporting (zeroed) gauges instead of freezing at its
	// last value — stable key sets also keep flap detection bridged.
	seen map[string]bool
	// execWins caches per-backend execute-latency windows so the OnBatch
	// hook does not rebuild canonical keys per batch.
	execWins map[string]*telemetry.Window
	// prevSliceBusy/sliceSeen mirror prevBusy/seen for compute slices:
	// windowed per-slice occupancy, and stable key sets after a slice is
	// reconfigured away. Only populated under spatial placement.
	prevSliceBusy map[sliceKey]time.Duration
	sliceSeen     map[sliceKey]bool
	// lastAt is the previous sample's time, for irregular final samples.
	lastAt time.Duration
}

// sliceKey identifies one spatial unit's slice gauge set.
type sliceKey struct{ backend, unit string }

func newTelemetrySampler(d *Deployment) *telemetrySampler {
	return &telemetrySampler{
		d:             d,
		prevBusy:      make(map[string]time.Duration),
		prevBatches:   make(map[string]uint64),
		prevItems:     make(map[string]uint64),
		seen:          make(map[string]bool),
		execWins:      make(map[string]*telemetry.Window),
		prevSliceBusy: make(map[sliceKey]time.Duration),
		sliceSeen:     make(map[sliceKey]bool),
	}
}

// execWindow returns the cached execute-latency window for a backend.
func (ts *telemetrySampler) execWindow(beID string) *telemetry.Window {
	w, ok := ts.execWins[beID]
	if !ok {
		w = ts.d.telem.Registry().Window("backend_exec_ms", "backend", beID)
		ts.execWins[beID] = w
	}
	return w
}

// sample pulls every plane's state into the registry and ticks the
// collector. Runs on the simulation goroutine.
func (ts *telemetrySampler) sample() {
	d := ts.d
	now := d.Clock.Now()
	elapsed := now - ts.lastAt
	reg := d.telem.Registry()

	// Per-session outcome counters from the metrics recorder.
	for _, sid := range d.Recorder.SessionIDs() {
		s := d.Recorder.Session(sid)
		reg.Counter("session_sent_total", "session", sid).Set(float64(s.Sent))
		reg.Counter("session_good_total", "session", sid).Set(float64(s.Good()))
		reg.Counter("session_bad_total", "session", sid).Set(float64(s.Bad()))
		reg.Counter("session_drops_total", "session", sid, "cause", "deadline").Set(float64(s.Dropped))
		reg.Counter("session_drops_total", "session", sid, "cause", "unroutable").Set(float64(s.Unroutable))
		reg.Counter("session_drops_total", "session", sid, "cause", "reconfig").Set(float64(s.Reconfig))
		reg.Counter("session_drops_total", "session", sid, "cause", "overload").Set(float64(s.Overload))
		reg.Counter("session_drops_total", "session", sid, "cause", "failure").Set(float64(s.Failed))
		reg.Counter("session_late_total", "session", sid).Set(float64(s.Missed))
	}

	// Per-frontend dispatch state.
	for i, fe := range d.Frontends {
		l := strconv.Itoa(i)
		reg.Counter("frontend_dispatch_total", "frontend", l).Set(float64(fe.Dispatches()))
		reg.Counter("frontend_retries_total", "frontend", l).Set(float64(fe.Retries()))
		reg.Gauge("frontend_table_version", "frontend", l).Set(float64(fe.TableVersion()))
	}

	// Degraded-mode survival instruments, only when the layer is on: a
	// deployment without it keeps its exact pre-existing metric key set.
	if d.cfg.degraded() {
		for i, fe := range d.Frontends {
			l := strconv.Itoa(i)
			reg.Gauge("frontend_route_staleness_ms", "frontend", l).Set(trace.MS(fe.RouteStaleness()))
			reg.Counter("frontend_stale_served_total", "frontend", l).Set(float64(fe.StaleServed()))
			reg.Gauge("frontend_breakers_open", "frontend", l).Set(float64(fe.OpenBreakers()))
			reg.Counter("frontend_breaker_transitions_total", "frontend", l).Set(float64(fe.BreakerTransitions()))
			reg.Counter("frontend_admission_shed_total", "frontend", l).Set(float64(fe.AdmissionSheds()))
		}
		for _, sid := range d.Recorder.SessionIDs() {
			s := d.Recorder.Session(sid)
			reg.Counter("session_drops_total", "session", sid, "cause", "admission").Set(float64(s.Admission))
		}
		down := 0.0
		if d.Sched.Down() {
			down = 1
		}
		reg.Gauge("sched_down").Set(down)
		reg.Counter("sched_recoveries_total").Set(float64(d.Sched.Recoveries()))
		reg.Counter("sched_stale_echoes_total").Set(float64(d.Sched.StaleEchoes()))
		reg.Counter("sched_reregistered_total").Set(float64(d.Sched.Reregistered()))
		reg.Counter("sched_capped_pushes_total").Set(float64(d.Sched.CappedPushes()))
	}

	// Per-backend data-plane state. Live backends export real values;
	// backends that left the pool export zeros, keeping key sets stable.
	live := make(map[string]bool)
	sliceLive := make(map[sliceKey]bool)
	for _, beID := range d.BackendIDs() {
		live[beID] = true
		ts.seen[beID] = true
		be := d.Pool.Get(beID)
		reg.Gauge("backend_queue_depth", "backend", beID).Set(float64(be.QueuedTotal()))
		up := 0.0
		if be.Alive() {
			up = 1
		}
		reg.Gauge("backend_up", "backend", beID).Set(up)
		reg.Gauge("backend_incarnation", "backend", beID).Set(float64(be.Incarnation()))
		busy := be.Device().BusyTime()
		duty := 0.0
		if elapsed > 0 {
			duty = float64(busy-ts.prevBusy[beID]) / float64(elapsed)
			if duty < 0 {
				duty = 0
			}
			if duty > 1 {
				duty = 1
			}
		}
		ts.prevBusy[beID] = busy
		reg.Gauge("backend_duty", "backend", beID).Set(duty)
		batches, items := be.BatchStats()
		avg := 0.0
		if db := batches - ts.prevBatches[beID]; batches >= ts.prevBatches[beID] && db > 0 {
			avg = float64(items-ts.prevItems[beID]) / float64(db)
		}
		ts.prevBatches[beID], ts.prevItems[beID] = batches, items
		reg.Gauge("backend_batch_size", "backend", beID).Set(avg)
		// Per-slice occupancy: SliceStats is empty without spatial units, so
		// a temporal deployment adds no keys.
		for _, st := range be.SliceStats() {
			k := sliceKey{beID, st.UnitID}
			sliceLive[k] = true
			ts.sliceSeen[k] = true
			occ := 0.0
			if elapsed > 0 {
				occ = float64(st.Busy-ts.prevSliceBusy[k]) / float64(elapsed)
				if occ < 0 {
					occ = 0
				}
				if occ > 1 {
					occ = 1
				}
			}
			ts.prevSliceBusy[k] = st.Busy
			reg.Gauge("backend_slice_frac", "backend", beID, "unit", st.UnitID).Set(st.Frac)
			reg.Gauge("backend_slice_occupancy", "backend", beID, "unit", st.UnitID).Set(occ)
			reg.Gauge("backend_slice_queue_depth", "backend", beID, "unit", st.UnitID).Set(float64(st.Queued))
		}
	}
	gone := make([]string, 0, len(ts.seen))
	for beID := range ts.seen {
		if !live[beID] {
			gone = append(gone, beID)
		}
	}
	sort.Strings(gone)
	for _, beID := range gone {
		reg.Gauge("backend_queue_depth", "backend", beID).Set(0)
		reg.Gauge("backend_up", "backend", beID).Set(0)
		reg.Gauge("backend_duty", "backend", beID).Set(0)
		reg.Gauge("backend_batch_size", "backend", beID).Set(0)
		delete(ts.prevBusy, beID)
		delete(ts.prevBatches, beID)
		delete(ts.prevItems, beID)
	}
	goneSlices := make([]sliceKey, 0, len(ts.sliceSeen))
	for k := range ts.sliceSeen {
		if !sliceLive[k] {
			goneSlices = append(goneSlices, k)
		}
	}
	sort.Slice(goneSlices, func(i, j int) bool {
		if goneSlices[i].backend != goneSlices[j].backend {
			return goneSlices[i].backend < goneSlices[j].backend
		}
		return goneSlices[i].unit < goneSlices[j].unit
	})
	for _, k := range goneSlices {
		reg.Gauge("backend_slice_frac", "backend", k.backend, "unit", k.unit).Set(0)
		reg.Gauge("backend_slice_occupancy", "backend", k.backend, "unit", k.unit).Set(0)
		reg.Gauge("backend_slice_queue_depth", "backend", k.backend, "unit", k.unit).Set(0)
		delete(ts.prevSliceBusy, k)
	}

	// Control plane.
	reg.Counter("sched_epochs_total").Set(float64(d.Sched.Epochs()))
	reg.Counter("sched_sessions_moved_total").Set(float64(d.Sched.TotalMoved()))
	reg.Gauge("sched_gpus_allocated").Set(float64(d.Pool.InUse()))
	reg.Gauge("sched_gpus_demanded").Set(float64(d.Sched.GPUsDemanded()))
	reg.Gauge("cluster_gpus_capacity").Set(float64(d.Pool.Capacity()))
	reg.Counter("cluster_unroutable_total").Set(float64(d.unroutable))

	// Shard counters only when the plan is partitioned: a one-shard
	// deployment keeps its exact golden key set.
	if d.Sched.Partitioned() {
		replanned, skipped, crossMoves := d.Sched.ShardTotals()
		reg.Counter("sched_shards_replanned_total").Set(float64(replanned))
		reg.Counter("sched_shards_skipped_total").Set(float64(skipped))
		reg.Counter("sched_cross_shard_moves_total").Set(float64(crossMoves))
	}
	deltas, fulls, sessions := d.Sched.RoutePushStats()
	reg.Counter("sched_delta_pushes_total").Set(float64(deltas))
	reg.Counter("sched_full_pushes_total").Set(float64(fulls))
	reg.Counter("sched_delta_sessions_total").Set(float64(sessions))

	ts.lastAt = now
	d.telem.Tick(now)
}
