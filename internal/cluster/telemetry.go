package cluster

import (
	"strconv"
	"time"

	"nexus/internal/backend"
	"nexus/internal/metrics"
	"nexus/internal/session"
	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

// telemetrySampler is the pull side of the telemetry plane: every sampling
// tick it reads counters the simulation already maintains — the metrics
// recorder, frontend dispatch state, backend queues and devices, the
// scheduler — into the registry, then hands the collector a snapshot. No
// hot-path instrumentation is needed beyond the batch-grain execute-
// latency hook, so an enabled plane still never perturbs event order.
//
// Each instrument is looked up once, when the sampler first sees its
// session, frontend, backend or slice; after that a tick only sets values.
type telemetrySampler struct {
	d   *Deployment
	reg *telemetry.Registry

	sessions  []*sessionSeries // by session handle
	frontends []frontendSeries // by frontend index
	// backends holds every backend ever sampled, so a released or parked
	// backend keeps exporting (zeroed) gauges instead of freezing at its
	// last value — stable key sets also keep flap detection bridged.
	backends map[string]*backendSeries
	// slices does the same for compute slices: windowed per-slice
	// occupancy, and stable key sets after a slice is reconfigured away.
	// Only populated under spatial placement.
	slices map[sliceKey]*sliceSeries
	// execWins caches per-backend execute-latency windows so the OnBatch
	// hook does not rebuild canonical keys per batch.
	execWins map[string]*telemetry.Window
	sched    *schedSeries // nil until the first sample
	shards   *shardSeries // nil until the plan is partitioned
	// tick counts samples; a backend or slice series keeps the tick that
	// last found it live.
	tick uint64
	// lastAt is the previous sample's time, for irregular final samples.
	lastAt time.Duration
}

// sessionSeries is one session's outcome counters.
type sessionSeries struct {
	sent, good, bad, late *telemetry.Counter
	// drops by cause: deadline, unroutable, reconfig, overload, failure,
	// and admission, which is nil without the degraded-mode layer.
	drops [6]*telemetry.Counter
}

// frontendSeries is one frontend's dispatch state. The degraded-mode
// survival instruments are nil without that layer, so a deployment without
// it keeps its exact pre-existing metric key set.
type frontendSeries struct {
	dispatch, retries                              *telemetry.Counter
	version                                        *telemetry.Gauge
	staleness, breakersOpen                        *telemetry.Gauge
	staleServed, breakerTransitions, admissionShed *telemetry.Counter
}

// backendSeries is one backend's data-plane gauges, with the cumulative
// busy time and batch counts at the previous sample for the windowed duty
// and batch-size gauges.
type backendSeries struct {
	queue, up, incarnation, duty, batch *telemetry.Gauge
	prevBusy                            time.Duration
	prevBatches, prevItems              uint64
	live                                uint64
}

// sliceKey identifies one spatial unit's slice gauge set.
type sliceKey struct{ backend, unit string }

// sliceSeries is one compute slice's gauges.
type sliceSeries struct {
	frac, occupancy, queue *telemetry.Gauge
	prevBusy               time.Duration
	live                   uint64
}

// schedSeries is the control plane's instruments; the outage counters are
// nil without the degraded-mode layer.
type schedSeries struct {
	epochs, moved, unroutable              *telemetry.Counter
	deltaPushes, fullPushes, deltaSessions *telemetry.Counter
	allocated, demanded, capacity          *telemetry.Gauge
	down                                   *telemetry.Gauge
	recoveries, staleEchoes, reregistered  *telemetry.Counter
}

// shardSeries is the sharded planner's counters, only exported once the
// plan is partitioned, so a one-shard deployment keeps its exact golden
// key set.
type shardSeries struct {
	replanned, skipped, crossMoves *telemetry.Counter
}

func newTelemetrySampler(d *Deployment) *telemetrySampler {
	return &telemetrySampler{
		d:        d,
		reg:      d.telem.Registry(),
		backends: make(map[string]*backendSeries),
		slices:   make(map[sliceKey]*sliceSeries),
		execWins: make(map[string]*telemetry.Window),
	}
}

// execWindow returns the cached execute-latency window for a backend.
func (ts *telemetrySampler) execWindow(beID string) *telemetry.Window {
	w, ok := ts.execWins[beID]
	if !ok {
		w = ts.reg.Window("backend_exec_ms", "backend", beID)
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
	ts.tick++
	degraded := d.cfg.degraded()

	// Per-session outcome counters from the metrics recorder.
	d.Recorder.Each(func(h session.Handle, st *metrics.SessionStats) {
		if int(h) >= len(ts.sessions) || ts.sessions[h] == nil {
			ts.sessions = session.Fit(ts.sessions, h)
			ts.sessions[h] = ts.newSession(d.names.ID(h), degraded)
		}
		s := ts.sessions[h]
		s.sent.Set(float64(st.Sent))
		s.good.Set(float64(st.Good()))
		s.bad.Set(float64(st.Bad()))
		s.late.Set(float64(st.Missed))
		for i, n := range [...]uint64{st.Dropped, st.Unroutable, st.Reconfig, st.Overload, st.Failed, st.Admission} {
			s.drops[i].Set(float64(n))
		}
	})

	// Per-frontend dispatch state.
	for i, fe := range d.Frontends {
		if i == len(ts.frontends) {
			ts.frontends = append(ts.frontends, ts.newFrontend(strconv.Itoa(i), degraded))
		}
		f := &ts.frontends[i]
		f.dispatch.Set(float64(fe.Dispatches()))
		f.retries.Set(float64(fe.Retries()))
		f.version.Set(float64(fe.TableVersion()))
		if degraded {
			f.staleness.Set(trace.MS(fe.RouteStaleness()))
			f.staleServed.Set(float64(fe.StaleServed()))
			f.breakersOpen.Set(float64(fe.OpenBreakers()))
			f.breakerTransitions.Set(float64(fe.BreakerTransitions()))
			f.admissionShed.Set(float64(fe.AdmissionSheds()))
		}
	}

	// Per-backend data-plane state. Live backends export real values;
	// backends that left the pool export zeros, keeping key sets stable.
	for beID, be := range d.Pool.backends {
		bs := ts.backends[beID]
		if bs == nil {
			bs = ts.newBackend(beID)
			ts.backends[beID] = bs
		}
		bs.live = ts.tick
		bs.set(be, elapsed)
		// Per-slice occupancy: SliceStats is empty without spatial units, so
		// a temporal deployment adds no keys.
		for _, st := range be.SliceStats() {
			k := sliceKey{beID, st.UnitID}
			ss := ts.slices[k]
			if ss == nil {
				ss = ts.newSlice(k)
				ts.slices[k] = ss
			}
			ss.live = ts.tick
			ss.frac.Set(st.Frac)
			ss.occupancy.Set(busyFrac(st.Busy-ss.prevBusy, elapsed))
			ss.prevBusy = st.Busy
			ss.queue.Set(float64(st.Queued))
		}
	}
	for _, bs := range ts.backends {
		if bs.live != ts.tick {
			bs.queue.Set(0)
			bs.up.Set(0)
			bs.duty.Set(0)
			bs.batch.Set(0)
			bs.prevBusy, bs.prevBatches, bs.prevItems = 0, 0, 0
		}
	}
	for _, ss := range ts.slices {
		if ss.live != ts.tick {
			ss.frac.Set(0)
			ss.occupancy.Set(0)
			ss.queue.Set(0)
			ss.prevBusy = 0
		}
	}

	// Control plane.
	if ts.sched == nil {
		ts.sched = ts.newSched(degraded)
	}
	sc := ts.sched
	if degraded {
		down := 0.0
		if d.Sched.Down() {
			down = 1
		}
		sc.down.Set(down)
		sc.recoveries.Set(float64(d.Sched.Recoveries()))
		sc.staleEchoes.Set(float64(d.Sched.StaleEchoes()))
		sc.reregistered.Set(float64(d.Sched.Reregistered()))
	}
	sc.epochs.Set(float64(d.Sched.Epochs()))
	sc.moved.Set(float64(d.Sched.TotalMoved()))
	sc.allocated.Set(float64(d.Pool.InUse()))
	sc.demanded.Set(float64(d.Sched.GPUsDemanded()))
	sc.capacity.Set(float64(d.Pool.Capacity()))
	sc.unroutable.Set(float64(d.unroutable))
	if d.Sched.Partitioned() {
		if ts.shards == nil {
			ts.shards = &shardSeries{
				replanned:  ts.reg.Counter("sched_shards_replanned_total"),
				skipped:    ts.reg.Counter("sched_shards_skipped_total"),
				crossMoves: ts.reg.Counter("sched_cross_shard_moves_total"),
			}
		}
		replanned, skipped, crossMoves := d.Sched.ShardTotals()
		ts.shards.replanned.Set(float64(replanned))
		ts.shards.skipped.Set(float64(skipped))
		ts.shards.crossMoves.Set(float64(crossMoves))
	}
	deltas, fulls, sessions := d.Sched.RoutePushStats()
	sc.deltaPushes.Set(float64(deltas))
	sc.fullPushes.Set(float64(fulls))
	sc.deltaSessions.Set(float64(sessions))

	ts.lastAt = now
	d.telem.Tick(now)
}

func (ts *telemetrySampler) newSched(degraded bool) *schedSeries {
	reg := ts.reg
	sc := &schedSeries{
		epochs:        reg.Counter("sched_epochs_total"),
		moved:         reg.Counter("sched_sessions_moved_total"),
		unroutable:    reg.Counter("cluster_unroutable_total"),
		deltaPushes:   reg.Counter("sched_delta_pushes_total"),
		fullPushes:    reg.Counter("sched_full_pushes_total"),
		deltaSessions: reg.Counter("sched_delta_sessions_total"),
		allocated:     reg.Gauge("sched_gpus_allocated"),
		demanded:      reg.Gauge("sched_gpus_demanded"),
		capacity:      reg.Gauge("cluster_gpus_capacity"),
	}
	if degraded {
		sc.down = reg.Gauge("sched_down")
		sc.recoveries = reg.Counter("sched_recoveries_total")
		sc.staleEchoes = reg.Counter("sched_stale_echoes_total")
		sc.reregistered = reg.Counter("sched_reregistered_total")
	}
	return sc
}

func (ts *telemetrySampler) newSession(sid string, degraded bool) *sessionSeries {
	reg := ts.reg
	drop := func(cause string) *telemetry.Counter {
		return reg.Counter("session_drops_total", "session", sid, "cause", cause)
	}
	s := &sessionSeries{
		sent: reg.Counter("session_sent_total", "session", sid),
		good: reg.Counter("session_good_total", "session", sid),
		bad:  reg.Counter("session_bad_total", "session", sid),
		late: reg.Counter("session_late_total", "session", sid),
		drops: [...]*telemetry.Counter{
			drop("deadline"), drop("unroutable"), drop("reconfig"), drop("overload"), drop("failure"), nil,
		},
	}
	if degraded {
		s.drops[5] = drop("admission")
	}
	return s
}

func (ts *telemetrySampler) newFrontend(l string, degraded bool) frontendSeries {
	reg := ts.reg
	f := frontendSeries{
		dispatch: reg.Counter("frontend_dispatch_total", "frontend", l),
		retries:  reg.Counter("frontend_retries_total", "frontend", l),
		version:  reg.Gauge("frontend_table_version", "frontend", l),
	}
	if degraded {
		f.staleness = reg.Gauge("frontend_route_staleness_ms", "frontend", l)
		f.staleServed = reg.Counter("frontend_stale_served_total", "frontend", l)
		f.breakersOpen = reg.Gauge("frontend_breakers_open", "frontend", l)
		f.breakerTransitions = reg.Counter("frontend_breaker_transitions_total", "frontend", l)
		f.admissionShed = reg.Counter("frontend_admission_shed_total", "frontend", l)
	}
	return f
}

func (ts *telemetrySampler) newBackend(beID string) *backendSeries {
	reg := ts.reg
	return &backendSeries{
		queue:       reg.Gauge("backend_queue_depth", "backend", beID),
		up:          reg.Gauge("backend_up", "backend", beID),
		incarnation: reg.Gauge("backend_incarnation", "backend", beID),
		duty:        reg.Gauge("backend_duty", "backend", beID),
		batch:       reg.Gauge("backend_batch_size", "backend", beID),
	}
}

func (ts *telemetrySampler) newSlice(k sliceKey) *sliceSeries {
	reg := ts.reg
	return &sliceSeries{
		frac:      reg.Gauge("backend_slice_frac", "backend", k.backend, "unit", k.unit),
		occupancy: reg.Gauge("backend_slice_occupancy", "backend", k.backend, "unit", k.unit),
		queue:     reg.Gauge("backend_slice_queue_depth", "backend", k.backend, "unit", k.unit),
	}
}

// set samples a live backend.
func (bs *backendSeries) set(be *backend.Backend, elapsed time.Duration) {
	bs.queue.Set(float64(be.QueuedTotal()))
	up := 0.0
	if be.Alive() {
		up = 1
	}
	bs.up.Set(up)
	bs.incarnation.Set(float64(be.Incarnation()))
	busy := be.Device().BusyTime()
	bs.duty.Set(busyFrac(busy-bs.prevBusy, elapsed))
	bs.prevBusy = busy
	batches, items := be.BatchStats()
	avg := 0.0
	if db := batches - bs.prevBatches; batches >= bs.prevBatches && db > 0 {
		avg = float64(items-bs.prevItems) / float64(db)
	}
	bs.prevBatches, bs.prevItems = batches, items
	bs.batch.Set(avg)
}

// busyFrac is the fraction of elapsed spent busy, clamped to [0, 1] (0
// when no time has elapsed).
func busyFrac(busy, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return min(max(float64(busy)/float64(elapsed), 0), 1)
}
