// Package globalsched implements the Nexus control plane (§5): the global
// scheduler that, every epoch, (1) re-derives latency splits for complex
// queries from observed workload statistics, (2) combines specialized
// models that share a prefix and SLO into prefix-batched units, (3) runs
// profile-guided squishy bin packing (or the batch-oblivious baseline), and
// (4) applies the plan — acquiring and releasing backends, loading models,
// and publishing routing tables to the frontends.
package globalsched

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"nexus/internal/backend"
	"nexus/internal/frontend"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/queryopt"
	"nexus/internal/scheduler"
	"nexus/internal/session"
	"nexus/internal/simclock"
	"nexus/internal/telemetry"
	"nexus/internal/trace"
)

// Pool grants and reclaims backend GPUs (the cluster resource manager the
// global scheduler talks to, §5).
type Pool interface {
	// Acquire returns a ready backend or an error when at capacity.
	Acquire() (string, *backend.Backend, error)
	// Release returns a backend to the pool.
	Release(id string)
	// Get returns an acquired backend by ID.
	Get(id string) *backend.Backend
	// InUse returns the number of acquired backends.
	InUse() int
	// Capacity returns the total number of grantable backends.
	Capacity() int
}

// SessionSpec declares a standalone session (model + SLO).
type SessionSpec struct {
	ID           string
	ModelID      string
	SLO          time.Duration
	ExpectedRate float64 // used until real traffic is observed
}

// QuerySpec declares a complex query with an expected root request rate.
type QuerySpec struct {
	Query        *queryopt.Query
	ExpectedRate float64
}

// Config selects control-plane behaviour; the booleans are the §7.3
// ablation switches.
type Config struct {
	Epoch         time.Duration // epoch length; 0 = 30s (§5)
	QueryAnalysis bool          // QA: DP latency splits vs even split
	PrefixBatch   bool          // PB: combine shared-prefix sessions
	Squishy       bool          // SS: squishy packing vs batch-oblivious
	// ObliviousGPUs fixes the cluster size for the batch-oblivious
	// baseline (which cannot size itself). Required when !Squishy.
	ObliviousGPUs int
	Sched         scheduler.Config
	// Overlap mirrors the runtime's CPU/GPU overlap setting: when false,
	// preprocessing is charged against the SLO during planning too.
	Overlap bool
	// PlanningSlack is subtracted from every SLO before planning to cover
	// costs the batching profile does not capture (network hops, dispatch
	// granularity). Default 3ms.
	PlanningSlack time.Duration
	// OnEpoch, when set, observes every completed epoch (for telemetry).
	OnEpoch func(epoch int, stats scheduler.MoveStats, gpusInUse int)
	// SpreadReplicas replicates plan nodes onto spare pool capacity so a
	// fixed-size cluster runs at full width. Leave false for elastic
	// deployments, where GPUs-in-use should track load (Figure 13).
	SpreadReplicas bool
	// Heartbeat enables failure detection: every acquired backend emits a
	// liveness beat at this period and the scheduler declares it dead after
	// LeaseMisses missed beats, repairing routes and acquiring a
	// replacement immediately (off-epoch). 0 disables detection — a dead
	// backend is then noticed only at the epoch boundary.
	Heartbeat time.Duration
	// LeaseMisses is how many consecutive beats may be missed before a
	// backend is declared dead (default 3).
	LeaseMisses int
	// Audit, when set, receives per-epoch placement records and query
	// budget splits (the control-plane audit log).
	Audit *trace.Audit
	// Shards partitions squishy planning deterministically across this many
	// concurrent shard planners, with a cross-shard rebalance step. Every
	// epoch re-plans each shard incrementally against its committed plan
	// (temporal placement) or from scratch (spatial and hybrid). 0 and 1
	// both mean one shard: an unpartitioned plan that carries no shard
	// attribution (see Partitioned).
	Shards int
	// PlanHysteresis is the relative rate band within which a shard skips
	// re-packing and carries its plan forward (0 disables skipping). It
	// applies at any shard count. This is the splitHysteresis idiom applied
	// to arrival rates: small workload noise must not re-pack the cluster.
	PlanHysteresis float64
	// RecoveryMaxRouteChanges rate-limits the first post-outage publish:
	// at most this many per-session route changes go out per push, the
	// remainder following in staged flushes, so the repair wave cannot
	// thrash every route at once; 0 disables the limit.
	RecoveryMaxRouteChanges int
}

// DefaultPlanningSlack covers round-trip dispatch latency plus margin.
const DefaultPlanningSlack = 3 * time.Millisecond

// DefaultEpoch matches the paper's epoch granularity.
const DefaultEpoch = 30 * time.Second

const (
	// headroom over-provisions for observed rates.
	headroom = 1.1
	// stageHeadroom over-provisions non-root query stages: their arrivals
	// are batch-correlated bursts from upstream stages, not smooth
	// processes, so rate-proportional provisioning under-serves them.
	stageHeadroom = 1.25
	// rateSmoothing is the EWMA weight of the newest rate observation.
	rateSmoothing = 0.7
)

// Scheduler is the global scheduler.
type Scheduler struct {
	clock     *simclock.Clock
	pool      Pool
	frontends []*frontend.Frontend
	names     *session.Table // the deployment's sessions, shared with the frontends
	modelDB   *model.DB
	profiles  map[string]*profiler.Profile // base profiles by model ID (see ResolveProfile)
	cfg       Config

	sessions []SessionSpec
	handles  []session.Handle // handles[i] is sessions[i]'s
	queries  []QuerySpec
	// families are the prefix families in key order (compareKeys),
	// familyOf finds one by key, and stageFam[j] is the family of the
	// epoch's j-th query stage (see families.go).
	families []*family
	familyOf map[familyKey]*family
	stageFam []*family
	// unitTable is the member -> unit table, kept while membership is
	// unchanged (nil = rebuild).
	unitTable []string

	// rates is the smoothed observed rate by session handle; observed marks
	// the sessions whose EWMA has been seeded.
	rates       []float64
	observed    []bool
	everyRates  bool // true once real observations exist
	prevPlan    *scheduler.Plan
	nodeBackend map[string][]string // plan node ID -> replica backend IDs
	// groups holds this epoch's prefix groups by group ID, which is both
	// the group's planning session ID and its model ID.
	groups map[string]prefixGroup
	// rateBuf and setBuf are observeRates' merge and publishRoutes' set,
	// reused across epochs.
	rateBuf []float64
	setBuf  []frontend.SessionRoutes

	epochs int
	// lastStats is DiffPlans of the last applied plan against the one
	// before it; totalMoved sums its SessionsMoved over every applied plan.
	lastStats  scheduler.MoveStats
	totalMoved int
	ticker     *simclock.Ticker

	// gammaEst smooths per-edge fan-out observations across epochs so the
	// latency-split DP does not chase workload noise.
	gammaEst map[string]float64
	// prevSplit provides hysteresis: a query keeps its split unless a new
	// one is meaningfully cheaper, avoiding oscillating reconfigurations
	// (the paper bounds reconfiguration frequency for the same reason, §5).
	prevSplit map[string]*queryopt.Split
	// adjBase caches the planning (CPU-adjusted) view of base profiles by
	// profile, so variants that share their source's profile share one
	// adjusted view.
	adjBase map[*profiler.Profile]*profiler.Profile
	// epochProf is the planning view of the last plan's models, built once
	// per plan by planProfiles.
	epochProf map[string]*profiler.Profile
	// lastDemand is the GPU count the last plan asked for before any
	// capacity-driven rate scaling (what the workload wanted, not what the
	// pool could grant).
	lastDemand int
	// lastPlannedRates remembers the rates the last batch-oblivious plan
	// was computed for (stability guard).
	lastPlannedRates map[string]float64

	// planner is the squishy packer. lastShard (the pass of the last
	// applied plan) and shardTotals (the sums over applied plans) stay zero
	// unless the plan is Partitioned.
	planner     *scheduler.ShardPlanner
	lastShard   scheduler.ShardStats
	shardTotals scheduler.ShardStats

	// Route-publish state: the generation and table of the last successful
	// publish, which every frontend holds, plus push counters for telemetry.
	pubGen        uint64
	lastTable     frontend.RoutingTable
	deltaPushes   uint64
	fullPushes    uint64
	deltaSessions uint64

	// Failure detection state.
	lastBeat map[string]time.Duration // backend ID -> last heartbeat time
	monitor  *simclock.Ticker
	failures int

	// Plan-diff forensics state: the placement records of the last audited
	// epoch (nil until the first audit) and the failure count at that point,
	// so the next epoch's diff can be tagged with a recovery cause.
	lastAudited       []trace.PlacementRecord
	lastAuditFailures int
	// memberUnit remembers the latest epoch's unit (group or self) ID by
	// member session handle ("" = none), so emergency repairs can
	// republish routes between epochs.
	memberUnit []string

	// Degraded-mode state (see degraded.go). down freezes planning, route
	// pushes, and lease monitoring (a scheduler outage); cutCtrl drops
	// beats from control-partitioned backends; lastInc records each
	// adopted backend's incarnation so outage recovery and partition heals
	// can reject stale echoes of instances that crashed in between.
	down    bool
	cutCtrl map[string]bool
	lastInc map[string]uint32
	// recoveryPending arms the rate-limited publish for the first
	// post-outage plan until a publish goes out uncapped;
	// recoveryFlushArmed dedups flush timers.
	recoveryPending    bool
	recoveryFlushArmed bool
	// Degraded counters for telemetry.
	recoveries   int
	staleEchoes  int
	reregistered int
	cappedPushes int
}

// splitHysteresis is the relative improvement a new latency split must
// offer before replacing the current one.
const splitHysteresis = 0.05

// New creates a global scheduler over the deployment's session table, which
// its frontends share: AddSession and AddQuery assign the handles that
// requests and routing tables carry.
func New(clock *simclock.Clock, pool Pool, frontends []*frontend.Frontend, names *session.Table,
	modelDB *model.DB, profiles map[string]*profiler.Profile, cfg Config) *Scheduler {
	if cfg.Epoch <= 0 {
		cfg.Epoch = DefaultEpoch
	}
	return &Scheduler{
		clock: clock, pool: pool, frontends: frontends, names: names,
		modelDB: modelDB, profiles: profiles, cfg: cfg,
		planner:     scheduler.NewShardPlanner(cfg.Shards),
		nodeBackend: make(map[string][]string),
		gammaEst:    make(map[string]float64),
		prevSplit:   make(map[string]*queryopt.Split),
		lastBeat:    make(map[string]time.Duration),
		cutCtrl:     make(map[string]bool),
		lastInc:     make(map[string]uint32),
	}
}

// Failures returns how many backends have been declared dead so far.
func (s *Scheduler) Failures() int { return s.failures }

// AddSession declares a standalone session and returns its handle.
func (s *Scheduler) AddSession(spec SessionSpec) (session.Handle, error) {
	if spec.ID == "" || spec.ModelID == "" || spec.SLO <= 0 {
		return 0, fmt.Errorf("globalsched: invalid session spec %+v", spec)
	}
	if s.profile(spec.ModelID) == nil {
		return 0, fmt.Errorf("globalsched: no profile for model %s", spec.ModelID)
	}
	h := s.names.Intern(spec.ID)
	s.sessions = append(s.sessions, spec)
	s.handles = append(s.handles, h)
	s.join(len(s.sessions) - 1)
	return h, nil
}

// GrowSessions makes room for n more standalone sessions, so that adding
// them grows the per-session tables once rather than step by step.
func (s *Scheduler) GrowSessions(n int) {
	s.sessions = slices.Grow(s.sessions, n)
	s.handles = slices.Grow(s.handles, n)
	s.names.Grow(n)
}

// AddQuery declares a complex query and gives each of its stage sessions
// ("query/node") a handle.
func (s *Scheduler) AddQuery(spec QuerySpec) error {
	if err := spec.Query.Validate(); err != nil {
		return err
	}
	nodes := spec.Query.Nodes()
	for _, n := range nodes {
		if s.profile(n.ModelID) == nil {
			return fmt.Errorf("globalsched: no profile for model %s (query %s)", n.ModelID, spec.Query.Name)
		}
	}
	for _, n := range nodes {
		s.names.Intern(queryopt.StageID(spec.Query, n))
	}
	s.queries = append(s.queries, spec)
	return nil
}

// Epochs returns how many epochs have run.
func (s *Scheduler) Epochs() int { return s.epochs }

// TotalMoved returns the sessions moved by every applied plan so far.
func (s *Scheduler) TotalMoved() int { return s.totalMoved }

// Plan returns the current cluster plan (nil before the first epoch).
func (s *Scheduler) Plan() *scheduler.Plan { return s.prevPlan }

// Start schedules RunEpoch every epoch period and, when failure detection
// is enabled, the lease monitor every heartbeat period. The first epoch
// must be run explicitly (deployments call RunEpoch once before offering
// traffic).
func (s *Scheduler) Start() {
	s.ticker = s.clock.StartTicker(s.cfg.Epoch, func() {
		// Epoch failures (e.g. pool exhausted during a burst) leave the
		// previous plan serving; the next epoch retries.
		_ = s.RunEpoch()
	})
	if s.cfg.Heartbeat > 0 {
		s.monitor = s.clock.StartTicker(s.cfg.Heartbeat, s.checkLeases)
	}
}

// Stop halts epoch scheduling, lease monitoring, and the backends'
// heartbeat tickers (otherwise a drain of the event queue after the run
// would never terminate).
func (s *Scheduler) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
	}
	if s.monitor != nil {
		s.monitor.Stop()
	}
	beIDs := make([]string, 0, len(s.lastBeat))
	for beID := range s.lastBeat {
		beIDs = append(beIDs, beID)
	}
	sort.Strings(beIDs)
	for _, beID := range beIDs {
		if be := s.pool.Get(beID); be != nil {
			be.StopHeartbeat()
		}
	}
}

func (s *Scheduler) leaseMisses() int {
	if s.cfg.LeaseMisses > 0 {
		return s.cfg.LeaseMisses
	}
	return 3
}

// adopt starts liveness monitoring on a newly acquired backend: the beat
// timestamp is seeded with the acquisition time (a grace period covering
// model loads) and the backend begins heartbeating into the scheduler. The
// backend's incarnation is recorded regardless of heartbeating, so outage
// recovery can tell a surviving instance from a stale echo that crashed
// and restarted in between.
func (s *Scheduler) adopt(beID string) {
	be := s.pool.Get(beID)
	if be == nil {
		return
	}
	s.lastInc[beID] = be.Incarnation()
	if s.cfg.Heartbeat <= 0 {
		return
	}
	s.lastBeat[beID] = s.clock.Now()
	be.StartHeartbeat(s.cfg.Heartbeat, s.beat)
}

// beat receives one backend liveness beat. Beats are lost while the
// scheduler is down (an outage drops them on the floor) and while the
// backend's control link is cut (an asymmetric partition: the node keeps
// serving, but the scheduler can't hear it).
func (s *Scheduler) beat(beID string) {
	if s.down || s.cutCtrl[beID] {
		return
	}
	s.lastBeat[beID] = s.clock.Now()
}

// checkLeases runs every heartbeat period: any assigned backend whose last
// beat is older than the lease (LeaseMisses beats) is declared dead and
// repaired around immediately, without waiting for the epoch boundary.
func (s *Scheduler) checkLeases() {
	if s.down {
		return
	}
	lease := time.Duration(s.leaseMisses()) * s.cfg.Heartbeat
	now := s.clock.Now()
	for _, nodeID := range s.sortedNodes() {
		for _, beID := range s.nodeBackend[nodeID] {
			last, ok := s.lastBeat[beID]
			if !ok || now-last <= lease {
				continue
			}
			s.handleFailure(nodeID, beID)
		}
	}
}

// handleFailure is the emergency recovery path for one dead backend:
// (a) the dead replica leaves its node; (b) a replacement GPU is acquired
// from the pool, configured with the dead node's plan units, and adopted;
// (c) the repaired routes go out as a delta, shifting the dead replica's
// traffic share onto the survivors and the replacement. Requests already
// queued or in flight on the dead node were accounted as failures when it
// crashed.
func (s *Scheduler) handleFailure(nodeID, beID string) {
	s.failures++
	s.dropReplica(nodeID, beID)
	kept := s.nodeBackend[nodeID]
	if s.prevPlan != nil {
		if g := s.planNode(nodeID); g != nil {
			s.replaceReplica(nodeID, g)
		}
		_ = s.publishRoutes(s.prevPlan)
	}
	if s.cfg.Audit != nil {
		// Off-epoch forensics edge: what the emergency path changed, without
		// waiting for the next epoch's full placement diff.
		changes := []trace.PlanChange{{Kind: "replica-removed", Node: nodeID, From: beID}}
		for _, id := range s.nodeBackend[nodeID] {
			if !slices.Contains(kept, id) {
				changes = append(changes, trace.PlanChange{Kind: "replica-added", Node: nodeID, To: id})
			}
		}
		s.cfg.Audit.RecordPlanDiff(trace.PlanDiffRecord{
			Epoch: s.epochs, AtMS: trace.MS(s.clock.Now()),
			Cause: "recovery", Changes: changes,
		})
	}
}

// planNode returns the current plan's node by ID (nil if gone).
func (s *Scheduler) planNode(nodeID string) *scheduler.GPUPlan {
	if s.prevPlan == nil {
		return nil
	}
	for i := range s.prevPlan.GPUs {
		if s.prevPlan.GPUs[i].ID == nodeID {
			return &s.prevPlan.GPUs[i]
		}
	}
	return nil
}

// replaceReplica acquires and configures a replacement backend for a plan
// node (best effort: an exhausted pool leaves the node to the survivors
// until the next epoch).
func (s *Scheduler) replaceReplica(nodeID string, g *scheduler.GPUPlan) {
	newID, be, err := s.pool.Acquire()
	if err != nil {
		return
	}
	units, uerr := s.unitsFor(g)
	if uerr != nil || be.Configure(units) != nil {
		s.pool.Release(newID)
		return
	}
	s.nodeBackend[nodeID] = append(s.nodeBackend[nodeID], newID)
	s.adopt(newID)
}

// RunEpoch performs one control-plane cycle. During a scheduler outage it
// is a no-op: the data plane keeps serving on its last routing table.
func (s *Scheduler) RunEpoch() error {
	if s.down {
		return nil
	}
	s.epochs++
	// Shed replicas that died since the last epoch before planning, so the
	// packer sees the shrunken grantable capacity and the assignment loops
	// below replace the dead nodes.
	s.sweepDead()
	s.observeRates()
	sessions, routingMembers, err := s.buildSessions()
	if err != nil {
		return err
	}
	plan, pass, err := s.plan(sessions)
	if err != nil {
		return err
	}
	if err := s.apply(plan, routingMembers); err != nil {
		return err
	}
	s.lastStats = scheduler.DiffPlans(s.prevPlan, plan)
	s.totalMoved += s.lastStats.SessionsMoved
	if pass != nil {
		// Commit only an applied plan: the next epoch re-plans against what
		// the cluster actually runs, not a plan the pool could not host.
		s.planner.Commit(pass)
		if s.Partitioned() {
			s.lastShard = pass.Stats
			s.shardTotals.Replanned += pass.Stats.Replanned
			s.shardTotals.Skipped += pass.Stats.Skipped
			s.shardTotals.CrossShardMoves += pass.Stats.CrossShardMoves
		}
	}
	s.prevPlan = plan
	s.auditEpoch(plan)
	if s.cfg.OnEpoch != nil {
		s.cfg.OnEpoch(s.epochs, s.lastStats, s.pool.InUse())
	}
	return nil
}

// auditEpoch records the applied plan's placements and their diff against
// the last audited epoch in the audit log.
func (s *Scheduler) auditEpoch(plan *scheduler.Plan) {
	if s.cfg.Audit == nil {
		return
	}
	recs := s.placements(plan)
	for _, rec := range recs {
		s.cfg.Audit.RecordPlacement(rec)
	}
	s.auditPlanDiff(trace.MS(s.clock.Now()), recs)
}

// placements describes an applied plan as one record per plan node, for the
// audit log and the health report alike: the node's duty cycle, occupancy
// and replica backends, and the per-session allocations (including
// merged-duty-cycle membership for prefix groups).
func (s *Scheduler) placements(plan *scheduler.Plan) []trace.PlacementRecord {
	now := trace.MS(s.clock.Now())
	recs := make([]trace.PlacementRecord, 0, len(plan.GPUs))
	for _, g := range plan.GPUs {
		rec := trace.PlacementRecord{
			Epoch: s.epochs, AtMS: now, Node: g.ID,
			Backends:  append([]string(nil), s.nodeBackend[g.ID]...),
			DutyMS:    trace.MS(g.Duty),
			Saturated: g.Saturated,
			Spatial:   g.Spatial,
			Shard:     shardTag(g.ID),
		}
		if occ, err := g.Occupancy(s.epochProf); err == nil {
			rec.Occupancy = occ
		}
		for _, a := range g.Allocs {
			rec.Units = append(rec.Units, trace.PlacedUnit{
				Unit: a.SessionID, Session: a.SessionID, Batch: a.Batch, Rate: a.Rate,
				Slice:   a.Slice,
				Members: append([]string(nil), s.groups[a.SessionID].members...),
			})
		}
		recs = append(recs, rec)
	}
	return recs
}

// GPUsDemanded returns the GPU count the last plan wanted before any
// capacity-driven rate scaling.
func (s *Scheduler) GPUsDemanded() int { return s.lastDemand }

// Explain builds the per-epoch scheduler health report: the current plan's
// placement records, the demanded-vs-allocated GPU counts and move stats.
// The telemetry collector stamps it with the alerts firing at plan time.
func (s *Scheduler) Explain() telemetry.HealthReport {
	now := s.clock.Now()
	rep := telemetry.HealthReport{
		Epoch: s.epochs, At: now, AtMS: trace.MS(now),
		GPUsDemanded:    s.lastDemand,
		GPUsAllocated:   s.pool.InUse(),
		GPUsCapacity:    s.pool.Capacity(),
		SessionsMoved:   s.lastStats.SessionsMoved,
		ShardsReplanned: s.lastShard.Replanned,
		ShardsSkipped:   s.lastShard.Skipped,
		CrossShardMoves: s.lastShard.CrossShardMoves,
	}
	if s.prevPlan != nil {
		rep.Placements = s.placements(s.prevPlan)
	}
	return rep
}

// observeRates folds the frontends' observed rates into the EWMA state.
func (s *Scheduler) observeRates() {
	merged := s.rateBuf[:0]
	for _, fe := range s.frontends {
		merged = fe.AddObservedRates(merged)
	}
	s.rateBuf = merged
	a := rateSmoothing // a variable: 1-a must round as float64, not as an exact constant
	if len(merged) == 0 {
		if s.everyRates {
			// Traffic stopped entirely: decay every estimate so the
			// cluster can shrink.
			for h := range s.rates {
				s.rates[h] *= 1 - a
			}
		}
		return // before any observation: keep expected rates
	}
	s.everyRates = true
	if n := len(merged); n > len(s.rates) {
		s.rates = session.Fit(s.rates, session.Handle(n-1))
		s.observed = session.Fit(s.observed, session.Handle(n-1))
	}
	for h := range s.rates {
		var r float64
		if h < len(merged) {
			r = merged[h]
		}
		switch {
		case r == 0:
			// No traffic this epoch: decay.
			s.rates[h] *= 1 - a
		case !s.observed[h]:
			// Seed the EWMA with the first observation; starting from zero
			// would underprovision the next epoch by (1-a).
			s.rates[h], s.observed[h] = r, true
		default:
			s.rates[h] = a*r + (1-a)*s.rates[h]
		}
	}
}

// rate returns the smoothed observed rate of a session (0 if none).
func (s *Scheduler) rate(h session.Handle) float64 {
	if int(h) < len(s.rates) {
		return s.rates[h]
	}
	return 0
}

// minSessionRate keeps declared sessions deployed even when observations
// dip to zero: a session scheduled at rate 0 would vanish from the routing
// table and its next request would be unroutable.
const minSessionRate = 0.1

// rateOf returns the planning rate for a user-facing session.
func (s *Scheduler) rateOf(h session.Handle, expected float64) float64 {
	r := expected
	if s.everyRates {
		r = s.rate(h)
	}
	r *= headroom
	if r < minSessionRate {
		r = minSessionRate
	}
	return r
}

// querySessions derives per-stage sessions for a query, adapting gamma
// estimates and the latency split to the observed workload (§6.2).
func (s *Scheduler) querySessions(qs QuerySpec) ([]scheduler.Session, error) {
	q := qs.Query
	rootID := queryopt.StageID(q, q.Root)
	root, _ := s.names.Lookup(rootID)
	rootRate := s.rateOf(root, qs.ExpectedRate)
	if rootRate <= 0 {
		rootRate = 0.001 // keep the query deployed at negligible cost
	}
	// Adapt per-edge gammas from observed stage rates, and plan against
	// the slack-reduced SLO with CPU-adjusted profiles.
	adapted := s.adaptGammas(q)
	if slack := s.slack(); adapted.SLO > 2*slack {
		adapted.SLO -= slack
	}
	planProf := make(map[string]*profiler.Profile)
	for _, n := range adapted.Nodes() {
		if p, ok := s.basePlanProfile(n.ModelID); ok {
			planProf[n.ModelID] = p
		}
	}
	var split *queryopt.Split
	var err error
	if s.cfg.QueryAnalysis {
		split, err = queryopt.Optimize(adapted, rootRate, planProf, queryopt.DefaultEpsilon, s.cfg.Sched)
		if err != nil {
			return nil, err
		}
		// Hysteresis: keep the previous split unless the new one is
		// meaningfully cheaper at current rates, so small workload noise
		// does not trigger cluster-wide reconfigurations.
		if prev := s.prevSplit[q.Name]; prev != nil {
			prevCost, cerr := queryopt.SplitCost(adapted, rootRate, prev, planProf, s.cfg.Sched)
			newCost, nerr := queryopt.SplitCost(adapted, rootRate, split, planProf, s.cfg.Sched)
			if cerr == nil && nerr == nil && prevCost < (1+splitHysteresis)*newCost {
				split = prev
			}
		}
		s.prevSplit[q.Name] = split
	} else {
		split, err = queryopt.EvenSplit(adapted)
		if err != nil {
			return nil, err
		}
	}
	if s.cfg.Audit != nil {
		method := "even"
		if s.cfg.QueryAnalysis {
			method = "dp"
		}
		budgets := make(map[string]float64, len(split.Budgets))
		for stage, b := range split.Budgets {
			budgets[stage] = trace.MS(b)
		}
		s.cfg.Audit.RecordSplit(trace.SplitRecord{
			Epoch: s.epochs, AtMS: trace.MS(s.clock.Now()), Query: q.Name, Method: method,
			GPUs: split.GPUs, Budgets: budgets,
		})
	}
	sessions, serr := queryopt.Sessions(adapted, rootRate, split)
	if serr != nil {
		return nil, serr
	}
	// Non-root stages receive their work in bursts aligned with upstream
	// batch completions; provision extra headroom for them.
	for i := range sessions {
		if sessions[i].ID != rootID { // rootID declared at the top of querySessions
			sessions[i].Rate *= stageHeadroom
		}
	}
	return sessions, nil
}

// adaptGammas rebuilds the query tree with gammas estimated from observed
// stage rates where available.
func (s *Scheduler) adaptGammas(q *queryopt.Query) *queryopt.Query {
	if !s.everyRates {
		return q
	}
	var cloneNode func(n *queryopt.Node) *queryopt.Node
	cloneNode = func(n *queryopt.Node) *queryopt.Node {
		nn := &queryopt.Node{Name: n.Name, ModelID: n.ModelID}
		parentRate := s.stageRate(q, n)
		for _, e := range n.Edges {
			gamma := e.Gamma
			key := queryopt.StageID(q, n) + ">" + e.Child.Name
			childRate := s.stageRate(q, e.Child)
			if parentRate > 0.5 && childRate > 0 {
				obs := childRate / parentRate
				// Smooth across epochs so the DP sees a stable estimate.
				if prev, ok := s.gammaEst[key]; ok {
					obs = 0.3*obs + 0.7*prev
				}
				s.gammaEst[key] = obs
				gamma = obs
			}
			nn.Edges = append(nn.Edges, queryopt.Edge{Gamma: gamma, Child: cloneNode(e.Child)})
		}
		return nn
	}
	return &queryopt.Query{Name: q.Name, SLO: q.SLO, Root: cloneNode(q.Root)}
}

// stageRate returns the smoothed observed rate of a query stage.
func (s *Scheduler) stageRate(q *queryopt.Query, n *queryopt.Node) float64 {
	h, _ := s.names.Lookup(queryopt.StageID(q, n))
	return s.rate(h)
}

// slack returns the planning slack subtracted from SLOs.
func (s *Scheduler) slack() time.Duration {
	switch {
	case s.cfg.PlanningSlack < 0:
		return 0
	case s.cfg.PlanningSlack == 0:
		return DefaultPlanningSlack
	default:
		return s.cfg.PlanningSlack
	}
}

// cpuOverhead is the per-item CPU cost the pipeline cannot hide from the
// SLO: postprocessing always; preprocessing too without overlap (§6.3).
func (s *Scheduler) cpuOverhead(p *profiler.Profile) time.Duration {
	oh := p.PostprocCPU / backend.CPUWorkers
	if !s.cfg.Overlap {
		oh += p.PreprocCPU / backend.CPUWorkers
	}
	return oh
}

// planProfile returns the planning view of a profile: batch latencies
// inflated by unhideable CPU work, so plans hold up at runtime.
func (s *Scheduler) planProfile(p *profiler.Profile) *profiler.Profile {
	return p.WithCPUOverhead(s.cpuOverhead(p))
}

// basePlanProfile returns the adjusted view of a model's base profile,
// derived on the profile's first lookup and cached. Grouped variants plan
// through their group's combined profile and are never derived.
func (s *Scheduler) basePlanProfile(id string) (*profiler.Profile, bool) {
	p := s.profile(id)
	if p == nil {
		return nil, false
	}
	adj, ok := s.adjBase[p]
	if !ok {
		if s.adjBase == nil {
			s.adjBase = make(map[*profiler.Profile]*profiler.Profile)
		}
		adj = s.planProfile(p)
		s.adjBase[p] = adj
	}
	return adj, true
}

// planProfiles builds the packer's view of one epoch: the adjusted profile
// of every model the epoch's sessions plan with, and of every model the
// previous plan allocates, which the incremental planner and the nodes it
// keeps still look up. This epoch's prefix-group profiles shadow base
// profiles of the same ID.
func (s *Scheduler) planProfiles(sessions []scheduler.Session) map[string]*profiler.Profile {
	m := make(map[string]*profiler.Profile, len(sessions))
	add := func(id string) {
		if _, ok := m[id]; ok {
			return
		}
		if g, ok := s.groups[id]; ok {
			m[id] = g.plan
		} else if p, ok := s.basePlanProfile(id); ok {
			m[id] = p
		}
	}
	for _, sess := range sessions {
		add(sess.ModelID)
	}
	if s.prevPlan != nil {
		for _, g := range s.prevPlan.GPUs {
			for _, a := range g.Allocs {
				add(a.ModelID)
			}
		}
	}
	return m
}

// plan runs the packing algorithm selected by the config. For squishy
// packing it also returns the accepted planner pass, which RunEpoch commits
// once the plan is applied.
func (s *Scheduler) plan(sessions []scheduler.Session) (*scheduler.Plan, *scheduler.ShardResult, error) {
	profiles := s.planProfiles(sessions)
	s.epochProf = profiles
	if !s.cfg.Squishy {
		if s.cfg.ObliviousGPUs < 1 {
			return nil, nil, fmt.Errorf("globalsched: batch-oblivious mode needs ObliviousGPUs")
		}
		// Stability: container placements only move when the workload has
		// changed materially. Rate noise must not reshuffle containers —
		// every move reloads models and drops queued requests.
		if s.prevPlan != nil && !ratesChangedMaterially(s.lastPlannedRates, sessions) {
			s.lastDemand = s.prevPlan.GPUCount()
			return s.prevPlan, nil, nil
		}
		plan, err := scheduler.BatchOblivious(sessions, profiles, s.cfg.ObliviousGPUs, s.cfg.Sched)
		if err != nil {
			return nil, nil, err
		}
		for i := range plan.GPUs {
			plan.GPUs[i].ID = fmt.Sprintf("n%d", i)
		}
		s.lastDemand = plan.GPUCount()
		s.lastPlannedRates = make(map[string]float64, len(sessions))
		for _, sess := range sessions {
			s.lastPlannedRates[sess.ID] = sess.Rate
		}
		return plan, nil, nil
	}
	// Admission control at planning time: when demand exceeds the pool,
	// provision for the largest rate fraction that fits and let the
	// runtime's drop policy shed the excess (§5 "Nexus relies on admission
	// control that drops excessive requests"). Re-iterations force every
	// shard dirty, since globally scaled rates must reach shards the
	// hysteresis band would otherwise skip. Only the accepted pass becomes
	// the next epoch's baseline.
	capacity := s.pool.Capacity()
	scaled := sessions
	for iter := 0; ; iter++ {
		res, err := s.planner.Plan(scaled, profiles, s.cfg.Sched, scheduler.ShardOpts{
			Hysteresis: s.cfg.PlanHysteresis,
			Force:      iter > 0,
		})
		if err != nil {
			return nil, nil, err
		}
		if iter == 0 {
			// Demand is what the unscaled workload asked for, recorded
			// before admission control shrinks rates to fit the pool.
			s.lastDemand = res.Plan.GPUCount()
		}
		if capacity <= 0 || res.Plan.GPUCount() <= capacity {
			return res.Plan, res, nil
		}
		if iter >= 20 {
			return nil, nil, fmt.Errorf("globalsched: demand needs %d GPUs, pool has %d", res.Plan.GPUCount(), capacity)
		}
		shrink := 0.97 * float64(capacity) / float64(res.Plan.GPUCount())
		next := make([]scheduler.Session, len(scaled))
		copy(next, scaled)
		for i := range next {
			next[i].Rate *= shrink
		}
		scaled = next
	}
}

// Partitioned reports whether plans are split across two or more shards.
// Shard attribution (node-ID prefixes, audit and health shard fields, shard
// counters) appears only then, so a one-shard plan carries none of it.
func (s *Scheduler) Partitioned() bool { return s.planner.Shards() >= 2 }

// ShardTotals sums the shard-planner counters of every applied plan:
// shards replanned, shards skipped by the hysteresis band, and sessions
// migrated across shards by the rebalance step (all zero unless
// Partitioned).
func (s *Scheduler) ShardTotals() (replanned, skipped, crossMoves int) {
	return s.shardTotals.Replanned, s.shardTotals.Skipped, s.shardTotals.CrossShardMoves
}

// RoutePushStats returns cumulative routing-publish counters, per
// frontend: delta pushes, full-table pushes (the first publish, onto empty
// frontends), and the total per-session entries carried by the deltas.
func (s *Scheduler) RoutePushStats() (delta, full, sessions uint64) {
	return s.deltaPushes, s.fullPushes, s.deltaSessions
}

// unitsFor builds the backend units for one plan node.
func (s *Scheduler) unitsFor(g *scheduler.GPUPlan) ([]backend.Unit, error) {
	var units []backend.Unit
	for _, a := range g.Allocs {
		p, err := s.profileOf(a.ModelID)
		if err != nil {
			return nil, err
		}
		unit := backend.Unit{
			ID:          a.SessionID,
			Profile:     p,
			TargetBatch: a.Batch,
			Members:     s.groups[a.SessionID].members,
		}
		if a.Slice > 0 {
			// Spatial placement: the unit runs pinned to a compute slice.
			// Scale the profile for the slice alone (co-residency slowdown
			// is charged dynamically by the device as co-residents run).
			unit.Slice = a.Slice
			unit.Profile = p.SliceProfile(a.Slice, 0)
		}
		if g, ok := s.groups[a.SessionID]; ok {
			unit.Prefix, unit.Suffix = g.prefix, g.suffix
		}
		units = append(units, unit)
	}
	return units, nil
}

// publishRoutes derives each session's routes from the plan and the current
// node -> backend assignment and pushes them to every frontend as a
// per-session delta against lastTable, the table every frontend holds at
// pubGen: the only way routes reach frontends (§5). The first publish is
// the delta from the empty generation 0. Each unit's traffic splits evenly
// across its node's replica backends. An empty delta means every frontend
// already holds these routes — the common steady-state epoch — and nothing
// is pushed at all; route leases are still renewed, so an idle but healthy
// scheduler keeps the data plane's leases alive.
func (s *Scheduler) publishRoutes(plan *scheduler.Plan) error {
	unitWeights := make(map[string][]frontend.Route)
	for _, g := range plan.GPUs {
		beIDs := s.nodeBackend[g.ID]
		for _, beID := range beIDs {
			for _, a := range g.Allocs {
				unitWeights[a.SessionID] = append(unitWeights[a.SessionID], frontend.Route{
					BackendID: beID, UnitID: a.SessionID,
					Weight: a.Rate/float64(len(beIDs)) + 1e-9,
				})
			}
		}
	}
	// Sets go out ascending by handle, removes sorted by session ID (for
	// determinism).
	set := s.setBuf[:0]
	var remove []session.Handle
	if n := len(s.memberUnit) - len(s.lastTable); n > 0 {
		// A nil entry is a session the frontends hold no routes for (all
		// of them, before the first publish): grow the held table once,
		// and make room in set for the new sessions, which can only be set.
		s.lastTable = append(s.lastTable, make(frontend.RoutingTable, n)...)
		set = slices.Grow(set, n)
	}
	for h, held := range s.lastTable {
		var routes []frontend.Route
		if h < len(s.memberUnit) {
			routes = unitWeights[s.memberUnit[h]]
		}
		switch {
		case len(routes) > 0 && !slices.Equal(routes, held):
			set = append(set, frontend.SessionRoutes{Session: session.Handle(h), Routes: routes})
		case len(routes) == 0 && held != nil:
			remove = append(remove, session.Handle(h))
		}
	}
	s.setBuf = set
	sort.Slice(remove, func(i, j int) bool { return s.names.ID(remove[i]) < s.names.ID(remove[j]) })
	if len(set) == 0 && len(remove) == 0 {
		s.recoveryPending = false
		s.renewLeases()
		return nil
	}
	if limit := s.cfg.RecoveryMaxRouteChanges; s.recoveryPending && limit > 0 && len(set)+len(remove) > limit {
		// First post-outage publish: stage the repair wave instead of
		// thrashing every route at once. A capped subset goes out now;
		// the rest follows in flushes until the delta drains.
		set, remove = s.capRecovery(set, remove, limit)
	} else {
		s.recoveryPending = false
	}
	delta := frontend.TableDelta{FromGen: s.pubGen, Gen: s.pubGen + 1, Set: set, Remove: remove}
	for _, fe := range s.frontends {
		if err := fe.ApplyDelta(delta); err != nil {
			return err
		}
	}
	if n := uint64(len(s.frontends)); s.pubGen == 0 {
		s.fullPushes += n
	} else {
		s.deltaPushes += n
		s.deltaSessions += n * uint64(len(set)+len(remove))
	}
	s.pubGen = delta.Gen
	for _, h := range remove {
		s.lastTable[h] = nil
	}
	for _, e := range set {
		s.lastTable[e.Session] = e.Routes
	}
	return nil
}

// sweepDead drops dead replicas from the node assignment, parks them in
// the pool and republishes the routes without them. With heartbeats
// enabled the lease monitor normally does this first; without them, the
// epoch boundary is where a deployment notices its crashed backends —
// epoch-granularity recovery, the baseline the chaos experiments compare
// against.
func (s *Scheduler) sweepDead() {
	dropped := false
	for _, nodeID := range s.sortedNodes() {
		for _, beID := range s.nodeBackend[nodeID] {
			if be := s.pool.Get(beID); be == nil || !be.Alive() {
				s.dropReplica(nodeID, beID)
				dropped = true
			}
		}
	}
	if dropped && s.prevPlan != nil {
		_ = s.publishRoutes(s.prevPlan)
	}
}

// sortedNodes returns the assigned plan node IDs, sorted, so walks over
// the assignment act in a deterministic order.
func (s *Scheduler) sortedNodes() []string {
	nodeIDs := make([]string, 0, len(s.nodeBackend))
	for nodeID := range s.nodeBackend {
		nodeIDs = append(nodeIDs, nodeID)
	}
	sort.Strings(nodeIDs)
	return nodeIDs
}

// dropReplica is the one way a dead or unreachable backend leaves: it is
// removed from its node's replicas, forgotten by the lease monitor and
// released (the pool parks a dead node outside the free list). It leaves
// the frontends alone: each caller then publishes the routes around it.
// The node's replica list is rebuilt rather than edited in place, so a
// caller may keep ranging over the list it read before the call.
func (s *Scheduler) dropReplica(nodeID, beID string) {
	kept := s.nodeBackend[nodeID][:0:0]
	for _, id := range s.nodeBackend[nodeID] {
		if id != beID {
			kept = append(kept, id)
		}
	}
	s.nodeBackend[nodeID] = kept
	delete(s.lastBeat, beID)
	delete(s.lastInc, beID)
	s.pool.Release(beID)
}

// release is the one way apply hands back a backend the plan no longer
// needs. It clears the backend's units first, because the pool parks an
// isolated backend without resetting it.
func (s *Scheduler) release(beID string) {
	if be := s.pool.Get(beID); be != nil {
		_ = be.Configure(nil)
	}
	delete(s.lastBeat, beID)
	delete(s.lastInc, beID)
	s.pool.Release(beID)
}

// apply maps plan nodes onto pool backends, configures them, and publishes
// the routing table.
func (s *Scheduler) apply(plan *scheduler.Plan, memberUnit []string) error {
	// Decide per-node replica counts: spare pool capacity is spread onto
	// the busiest nodes so a fixed cluster runs at full width instead of
	// leaving paid-for GPUs idle ("it is critical to sustain high
	// utilization", §2.1). Replication halves per-backend arrival rates,
	// absorbing bursts; the node's duty cycle and batches are unchanged so
	// SLO guarantees carry over.
	replicas := s.replicaCounts(plan)

	// Assign backends to node replicas, reusing previous assignments.
	// Two passes: every node gets its mandatory backend before any node
	// receives spare replicas, so spreading can never starve a node.
	newMapping := make(map[string][]string, len(plan.GPUs))
	for _, g := range plan.GPUs {
		want := replicas[g.ID]
		prev := s.nodeBackend[g.ID]
		if len(prev) > want {
			// Shrink: release the extras.
			for _, beID := range prev[want:] {
				s.release(beID)
			}
			prev = prev[:want]
		}
		newMapping[g.ID] = append([]string(nil), prev...)
	}
	for _, g := range plan.GPUs {
		if len(newMapping[g.ID]) > 0 {
			continue
		}
		beID, _, err := s.pool.Acquire()
		if err != nil {
			return fmt.Errorf("globalsched: acquiring backend for node %s: %w", g.ID, err)
		}
		newMapping[g.ID] = []string{beID}
		s.adopt(beID)
	}
	for _, g := range plan.GPUs {
		for len(newMapping[g.ID]) < replicas[g.ID] {
			beID, _, err := s.pool.Acquire()
			if err != nil {
				break // spares ran out; serve with fewer replicas
			}
			newMapping[g.ID] = append(newMapping[g.ID], beID)
			s.adopt(beID)
		}
	}
	// Release backends whose nodes vanished (sorted for a deterministic
	// free-list order).
	for _, nodeID := range s.sortedNodes() {
		if _, ok := newMapping[nodeID]; !ok {
			for _, beID := range s.nodeBackend[nodeID] {
				s.release(beID)
			}
		}
	}
	s.nodeBackend = newMapping

	// Configure every replica backend with its node's units.
	for _, g := range plan.GPUs {
		units, err := s.unitsFor(&g)
		if err != nil {
			return err
		}
		for _, beID := range newMapping[g.ID] {
			be := s.pool.Get(beID)
			if be == nil {
				return fmt.Errorf("globalsched: pool lost backend %s", beID)
			}
			if err := be.Configure(units); err != nil {
				return err
			}
		}
	}

	// Routing: each user-facing session routes to its unit's replicas.
	s.memberUnit = memberUnit
	return s.publishRoutes(plan)
}

// replicaCounts spreads spare pool capacity across plan nodes, most loaded
// first (by per-replica occupancy). Nodes that already hold extra replicas
// keep them (stability): dropping a replica discards its queue and
// reloading models elsewhere costs hundreds of milliseconds, so replica
// sets only shrink when the pool actually runs out.
func (s *Scheduler) replicaCounts(plan *scheduler.Plan) map[string]int {
	counts := make(map[string]int, len(plan.GPUs))
	for _, g := range plan.GPUs {
		counts[g.ID] = 1
	}
	spare := s.pool.Capacity() - plan.GPUCount()
	if !s.cfg.SpreadReplicas || !s.cfg.Squishy || spare <= 0 || len(plan.GPUs) == 0 {
		return counts
	}
	// Honor previous extra replicas first.
	for _, g := range plan.GPUs {
		extra := len(s.nodeBackend[g.ID]) - 1
		if extra <= 0 {
			continue
		}
		if extra > spare {
			extra = spare
		}
		counts[g.ID] += extra
		spare -= extra
		if spare == 0 {
			return counts
		}
	}
	occ := make(map[string]float64, len(plan.GPUs))
	for _, g := range plan.GPUs {
		if o, err := g.Occupancy(s.epochProf); err == nil {
			occ[g.ID] = o
		} else {
			occ[g.ID] = 1
		}
	}
	for ; spare > 0; spare-- {
		best := ""
		bestLoad := -1.0
		for _, g := range plan.GPUs {
			load := occ[g.ID] / float64(counts[g.ID])
			if load > bestLoad {
				best, bestLoad = g.ID, load
			}
		}
		counts[best]++
	}
	return counts
}

// shardTag renders the shard of a partitioned-plan node ID for audit and
// health records ("s3/n7" -> "s3"); unpartitioned node IDs yield "", which
// JSON omitempty drops.
func shardTag(nodeID string) string {
	k, ok := scheduler.NodeShard(nodeID)
	if !ok {
		return ""
	}
	return fmt.Sprintf("s%d", k)
}

// ratesChangedMaterially reports whether any session's rate moved more
// than 25% (or appeared/disappeared) since the last oblivious plan.
func ratesChangedMaterially(prev map[string]float64, sessions []scheduler.Session) bool {
	if len(prev) != len(sessions) {
		return true
	}
	for _, sess := range sessions {
		old, ok := prev[sess.ID]
		if !ok {
			return true
		}
		// Material = both a meaningful relative change and a meaningful
		// absolute one; sub-2 r/s wobbles on tiny sessions do not justify
		// reshuffling containers.
		diff := sess.Rate - old
		if diff < 0 {
			diff = -diff
		}
		if diff > 2 && diff > 0.25*old {
			return true
		}
	}
	return false
}
