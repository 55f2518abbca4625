package telemetry

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
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
	slices.SortFunc(violations, func(a, b violation) int { return strings.Compare(a.target, b.target) })
	for _, v := range violations {
		key := alertKey{rule, v.target}
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
		if key.rule != rule {
			continue
		}
		if _, active := slices.BinarySearchFunc(violations, key.target, func(v violation, t string) int {
			return strings.Compare(v.target, t)
		}); !active {
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

// counterDelta returns how much the counter family+labels grew over the
// trailing window. ok is false when the stream does not span the window
// yet.
func counterDelta(snaps []Snapshot, family, labels string, window time.Duration) (float64, bool) {
	old := before(snaps, window)
	if old == nil {
		return 0, false
	}
	cur, ok := snaps[len(snaps)-1].counterOf(family, labels)
	if !ok {
		return 0, false
	}
	prev, _ := old.counterOf(family, labels)
	return math.Max(cur-prev, 0), true
}

// checkBurnRate is the multi-window SLO burn-rate rule. A session's bad
// counter is the session_bad_total series with its good counter's labels.
func checkBurnRate(snaps []Snapshot) []violation {
	// A variable, so the budget is rounded float64 arithmetic: the exact
	// constant 1 - 0.99 rounds to a different float64 and shifts every
	// burn value.
	target := metrics.GoodputTarget
	budget := 1 - target
	last := &snaps[len(snaps)-1]
	var out []violation
	for _, goodKey := range last.Keys("session_good_total") {
		labels := goodKey[len("session_good_total"):]
		burn := func(w time.Duration) (float64, float64, bool) {
			good, ok1 := counterDelta(snaps, goodKey, "", w)
			bad, ok2 := counterDelta(snaps, "session_bad_total", labels, w)
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
				target: LabelValue(goodKey, "session"),
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

// checkStraggler is the gpu-straggler rule. It walks the exec windows
// three times (fleet mean, deviation, outliers) instead of collecting the
// peers.
func checkStraggler(snaps []Snapshot) []violation {
	last := &snaps[len(snaps)-1]
	keys := last.Keys("backend_exec_ms")
	// peer returns a window's mean when its GPU ran enough batches to count.
	peer := func(key string) (float64, bool) {
		w, ok := last.Window(key)
		return w.MeanMS, ok && w.Count >= stragglerBatches
	}
	n, sum := 0, 0.0
	for _, key := range keys {
		if mean, ok := peer(key); ok {
			n++
			sum += mean
		}
	}
	if n < stragglerPeers {
		return nil
	}
	mu := sum / float64(n)
	var varsum float64
	for _, key := range keys {
		if mean, ok := peer(key); ok {
			varsum += (mean - mu) * (mean - mu)
		}
	}
	sigma := math.Sqrt(varsum / float64(n))
	if sigma <= 1e-9 {
		return nil
	}
	var out []violation
	for _, key := range keys {
		mean, ok := peer(key)
		if !ok {
			continue
		}
		score := (mean - mu) / sigma
		if score >= stragglerZ && mean >= stragglerRatio*mu {
			out = append(out, violation{
				target: LabelValue(key, "backend"),
				value:  score,
				detail: fmt.Sprintf("exec mean %.2fms vs fleet %.2fms (z=%.2f over %d GPUs)", mean, mu, score, n),
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
