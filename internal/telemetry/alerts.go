package telemetry

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nexus/internal/metrics"
	"nexus/internal/trace"
)

// Alert is one transition in the alert log: a rule target starting to fire
// or resolving. Timestamps are virtual time, so the log is deterministic
// and chaos experiments can assert on exact alert placement relative to an
// injected fault.
type Alert struct {
	At     time.Duration `json:"-"`
	AtMS   float64       `json:"at_ms"`
	Rule   string        `json:"rule"`
	Target string        `json:"target"`
	State  string        `json:"state"` // "firing" | "resolved"
	Value  float64       `json:"value"`
	Detail string        `json:"detail,omitempty"`
}

// violation is one target a rule currently finds in violation.
type violation struct {
	target string
	value  float64
	detail string
}

// The alert rules' thresholds.
const (
	// slo-burn-rate: a session's bad-completion fraction, as a multiple
	// of the SLO error budget (1 - metrics.GoodputTarget), reaches
	// burnFactor over both the short and the long trailing window, with
	// at least burnMinSent finished requests in the long one. Requiring
	// both windows makes the alert fast on real incidents yet
	// self-clearing once the short window recovers.
	burnShort   = time.Second
	burnLong    = 5 * time.Second
	burnFactor  = 4.0
	burnMinSent = 20.0

	// queue-saturation: a backend's queue depth is at least queueLimit
	// for queueSamples successive samples.
	queueLimit   = 256.0
	queueSamples = 2

	// gpu-straggler: a GPU's mean execute latency in the last window is a
	// z-score outlier (at least stragglerZ) against the fleet and at
	// least stragglerRatio times the fleet mean, among at least
	// stragglerPeers GPUs that each ran stragglerBatches batches. One GPU
	// among n peers reaches at most z = √(n−1), so 4 peers is the fewest
	// at which 1.5 is attainable. The ratio guard keeps near-zero fleet
	// variance from amplifying noise into alerts.
	stragglerZ       = 1.5
	stragglerRatio   = 1.5
	stragglerPeers   = 4
	stragglerBatches = 3

	// backend-flap: a backend's up/down state changes at least
	// flapTransitions times within flapWindow — a crash/restart loop the
	// scheduler keeps chasing.
	flapWindow      = 10 * time.Second
	flapTransitions = 3
)

// rules is the alert rule set in evaluation order. Each check reads the
// snapshot stream (most recent last) and returns the targets currently in
// violation; it reads only its window plus the one snapshot before it.
var rules = [...]struct {
	name  string
	check func(snaps []Snapshot) []violation
}{
	{"slo-burn-rate", checkBurnRate},
	{"queue-saturation", checkQueueSaturation},
	{"gpu-straggler", checkStraggler},
	{"backend-flap", checkFlap},
}

// alertKey names one rule target.
type alertKey struct{ rule, target string }

// apply reconciles one rule's current violations against its firing set.
func (c *Collector) apply(rule string, at time.Duration, violations []violation) {
	sort.Slice(violations, func(i, j int) bool { return violations[i].target < violations[j].target })
	active := make(map[alertKey]bool, len(violations))
	for _, v := range violations {
		key := alertKey{rule, v.target}
		active[key] = true
		if c.firing[key] {
			continue
		}
		c.firing[key] = true
		c.alerts = append(c.alerts, Alert{
			At: at, AtMS: trace.MS(at), Rule: rule, Target: v.target,
			State: "firing", Value: v.value, Detail: v.detail,
		})
	}
	var resolved []string
	for key := range c.firing {
		if key.rule == rule && !active[key] {
			resolved = append(resolved, key.target)
		}
	}
	sort.Strings(resolved)
	for _, target := range resolved {
		delete(c.firing, alertKey{rule, target})
		c.alerts = append(c.alerts, Alert{
			At: at, AtMS: trace.MS(at), Rule: rule, Target: target, State: "resolved",
		})
	}
}

// firingNames returns the currently firing rule/target pairs, sorted,
// formatted "rule(target)".
func (c *Collector) firingNames() []string {
	out := make([]string, 0, len(c.firing))
	for key := range c.firing {
		out = append(out, key.rule+"("+key.target+")")
	}
	sort.Strings(out)
	return out
}

// before returns the newest snapshot at least `window` older than the
// last one, or nil when the stream does not reach back that far. Using the
// newest qualifying snapshot makes deltas cover as close to `window` as
// the sampling interval allows.
func before(snaps []Snapshot, window time.Duration) *Snapshot {
	cutoff := snaps[len(snaps)-1].At - window
	for i := len(snaps) - 2; i >= 0; i-- {
		if snaps[i].At <= cutoff {
			return &snaps[i]
		}
	}
	return nil
}

// counterDelta returns how much a counter grew over the trailing window.
// ok is false when the stream does not span the window yet.
func counterDelta(snaps []Snapshot, key string, window time.Duration) (float64, bool) {
	old := before(snaps, window)
	if old == nil {
		return 0, false
	}
	cur, ok := snaps[len(snaps)-1].Counter(key)
	if !ok {
		return 0, false
	}
	prev, _ := old.Counter(key)
	return math.Max(cur-prev, 0), true
}

// checkBurnRate is the multi-window SLO burn-rate rule.
func checkBurnRate(snaps []Snapshot) []violation {
	// A variable, so the budget is rounded float64 arithmetic: the exact
	// constant 1 - 0.99 rounds to a different float64 and shifts every
	// burn value.
	target := metrics.GoodputTarget
	budget := 1 - target
	last := &snaps[len(snaps)-1]
	var out []violation
	for _, goodKey := range last.Keys("session_good_total") {
		sid := LabelValue(goodKey, "session")
		badKey := Key("session_bad_total", "session", sid)
		burn := func(w time.Duration) (float64, float64, bool) {
			good, ok1 := counterDelta(snaps, goodKey, w)
			bad, ok2 := counterDelta(snaps, badKey, w)
			if !ok1 || !ok2 || good+bad == 0 {
				return 0, 0, false
			}
			frac := bad / (good + bad)
			return frac / budget, good + bad, true
		}
		bs, _, oks := burn(burnShort)
		bl, nl, okl := burn(burnLong)
		if !oks || !okl || nl < burnMinSent {
			continue
		}
		if bs >= burnFactor && bl >= burnFactor {
			out = append(out, violation{
				target: sid,
				value:  bs,
				detail: fmt.Sprintf("burn %.1fx budget over %v, %.1fx over %v (target %.2f%%)",
					bs, burnShort, bl, burnLong, 100*target),
			})
		}
	}
	return out
}

// checkQueueSaturation is the queue-saturation rule.
func checkQueueSaturation(snaps []Snapshot) []violation {
	if len(snaps) < queueSamples {
		return nil
	}
	last := &snaps[len(snaps)-1]
	var out []violation
	for _, key := range last.Keys("backend_queue_depth") {
		ok := true
		for i := 0; i < queueSamples; i++ {
			v, present := snaps[len(snaps)-1-i].Gauge(key)
			if !present || v < queueLimit {
				ok = false
				break
			}
		}
		if ok {
			v, _ := last.Gauge(key)
			out = append(out, violation{
				target: LabelValue(key, "backend"),
				value:  v,
				detail: fmt.Sprintf("queue depth %.0f >= %.0f for %d samples", v, queueLimit, queueSamples),
			})
		}
	}
	return out
}

// checkStraggler is the gpu-straggler rule.
func checkStraggler(snaps []Snapshot) []violation {
	last := &snaps[len(snaps)-1]
	type peer struct {
		id   string
		mean float64
	}
	var peers []peer
	for _, key := range last.Keys("backend_exec_ms") {
		w, ok := last.Windows[key]
		if !ok || w.Count < stragglerBatches {
			continue
		}
		peers = append(peers, peer{id: LabelValue(key, "backend"), mean: w.MeanMS})
	}
	if len(peers) < stragglerPeers {
		return nil
	}
	var sum float64
	for _, p := range peers {
		sum += p.mean
	}
	mu := sum / float64(len(peers))
	var varsum float64
	for _, p := range peers {
		varsum += (p.mean - mu) * (p.mean - mu)
	}
	sigma := math.Sqrt(varsum / float64(len(peers)))
	if sigma <= 1e-9 {
		return nil
	}
	var out []violation
	for _, p := range peers {
		score := (p.mean - mu) / sigma
		if score >= stragglerZ && p.mean >= stragglerRatio*mu {
			out = append(out, violation{
				target: p.id,
				value:  score,
				detail: fmt.Sprintf("exec mean %.2fms vs fleet %.2fms (z=%.2f over %d GPUs)", p.mean, mu, score, len(peers)),
			})
		}
	}
	return out
}

// checkFlap is the backend-flap rule.
func checkFlap(snaps []Snapshot) []violation {
	// The window is the snapshots at or after the cutoff; the newest one
	// before it is the baseline, so a change right at the window edge
	// counts.
	cutoff := snaps[len(snaps)-1].At - flapWindow
	start := len(snaps) - 1
	for start > 0 && snaps[start-1].At >= cutoff {
		start--
	}
	var base *Snapshot
	if start > 0 {
		base = &snaps[start-1]
	}
	window := snaps[start:]
	last := &snaps[len(snaps)-1]
	var out []violation
	for _, key := range last.Keys("backend_up") {
		if n := transitions(base, window, key); n >= flapTransitions {
			out = append(out, violation{
				target: LabelValue(key, "backend"),
				value:  float64(n),
				detail: fmt.Sprintf("%d up/down transitions in %v", n, flapWindow),
			})
		}
	}
	return out
}

// transitions counts how many times a gauge changed value across the
// window, starting from its value in base (nil or missing = no baseline).
// Missing samples are bridged with the last seen value, so a target that
// disappears and returns does not manufacture extra flips.
func transitions(base *Snapshot, window []Snapshot, key string) int {
	var prev float64
	seen := false
	if base != nil {
		prev, seen = base.Gauge(key)
	}
	n := 0
	for i := range window {
		v, ok := window[i].Gauge(key)
		if !ok {
			continue
		}
		if seen && v != prev {
			n++
		}
		prev, seen = v, true
	}
	return n
}
