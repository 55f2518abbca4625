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

// Violation is one target a rule currently finds in violation.
type Violation struct {
	Target string
	Value  float64
	Detail string
}

// Rule is a declarative alerting rule evaluated against the snapshot
// history after every sample.
type Rule interface {
	// Name identifies the rule in the alert log.
	Name() string
	// Window is how much snapshot history the rule needs retained.
	Window() time.Duration
	// Check returns the targets currently in violation.
	Check(h *History) []Violation
}

// History is the retained snapshot stream rules evaluate against,
// chronological, most recent last.
type History struct {
	snaps []Snapshot
}

// Latest returns the most recent snapshot (nil when empty).
func (h *History) Latest() *Snapshot {
	if len(h.snaps) == 0 {
		return nil
	}
	return &h.snaps[len(h.snaps)-1]
}

// Snapshots returns the retained stream.
func (h *History) Snapshots() []Snapshot { return h.snaps }

// before returns the newest snapshot at least `window` older than the
// latest one, or nil when history does not reach back that far. Using the
// newest qualifying snapshot makes deltas cover as close to `window` as
// the sampling interval allows.
func (h *History) before(window time.Duration) *Snapshot {
	if len(h.snaps) == 0 {
		return nil
	}
	cutoff := h.snaps[len(h.snaps)-1].At - window
	for i := len(h.snaps) - 2; i >= 0; i-- {
		if h.snaps[i].At <= cutoff {
			return &h.snaps[i]
		}
	}
	return nil
}

// CounterDelta returns how much a counter grew over the trailing window.
// ok is false when history does not span the window yet.
func (h *History) CounterDelta(key string, window time.Duration) (float64, bool) {
	last := h.Latest()
	old := h.before(window)
	if last == nil || old == nil {
		return 0, false
	}
	cur, okc := last.Counter(key)
	prev := 0.0
	if v, ok := old.Counter(key); ok {
		prev = v
	}
	if !okc {
		return 0, false
	}
	d := cur - prev
	if d < 0 {
		d = 0
	}
	return d, true
}

// Transitions counts how many times a gauge changed value across the
// snapshots of the trailing window (missing samples are bridged with the
// last seen value, so a target that disappears and returns does not
// manufacture extra flips).
func (h *History) Transitions(key string, window time.Duration) int {
	if len(h.snaps) == 0 {
		return 0
	}
	cutoff := h.snaps[len(h.snaps)-1].At - window
	n := 0
	var prev float64
	seen := false
	for i := range h.snaps {
		if h.snaps[i].At < cutoff {
			// Still establish the pre-window baseline so a change right at
			// the window edge counts.
			if v, ok := h.snaps[i].Gauge(key); ok {
				prev, seen = v, true
			}
			continue
		}
		v, ok := h.snaps[i].Gauge(key)
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

// Engine evaluates rules over the snapshot stream and maintains the
// deterministic alert log. The nil Engine accepts every call and does
// nothing.
type Engine struct {
	rules  []Rule
	keep   time.Duration
	hist   History
	firing map[string]bool // rule+"\x00"+target currently firing
	log    []Alert
}

// NewEngine builds an engine over the given rules (nil or empty = no
// alerting, snapshots are still retained for the longest default window).
func NewEngine(rules []Rule) *Engine {
	e := &Engine{rules: rules, firing: make(map[string]bool)}
	for _, r := range rules {
		if w := r.Window(); w > e.keep {
			e.keep = w
		}
	}
	if e.keep < 10*time.Second {
		e.keep = 10 * time.Second
	}
	return e
}

// Observe appends a snapshot to the history and evaluates every rule,
// logging firing/resolved transitions stamped with the snapshot time.
func (e *Engine) Observe(s Snapshot) {
	if e == nil {
		return
	}
	e.hist.snaps = append(e.hist.snaps, s)
	// Trim history beyond the longest rule window (keep one extra sample so
	// window-edge deltas stay available).
	cutoff := s.At - e.keep
	drop := 0
	for drop < len(e.hist.snaps)-1 && e.hist.snaps[drop+1].At < cutoff {
		drop++
	}
	if drop > 0 {
		e.hist.snaps = append(e.hist.snaps[:0], e.hist.snaps[drop:]...)
	}
	for _, r := range e.rules {
		e.apply(r.Name(), s.At, r.Check(&e.hist))
	}
}

// apply reconciles one rule's current violations against its firing set.
func (e *Engine) apply(rule string, at time.Duration, violations []Violation) {
	sort.Slice(violations, func(i, j int) bool { return violations[i].Target < violations[j].Target })
	active := make(map[string]bool, len(violations))
	for _, v := range violations {
		key := rule + "\x00" + v.Target
		active[key] = true
		if e.firing[key] {
			continue
		}
		e.firing[key] = true
		e.log = append(e.log, Alert{
			At: at, AtMS: trace.MS(at), Rule: rule, Target: v.Target,
			State: "firing", Value: v.Value, Detail: v.Detail,
		})
	}
	var resolved []string
	for key := range e.firing {
		if len(key) > len(rule) && key[:len(rule)] == rule && key[len(rule)] == 0 && !active[key] {
			resolved = append(resolved, key)
		}
	}
	sort.Strings(resolved)
	for _, key := range resolved {
		delete(e.firing, key)
		e.log = append(e.log, Alert{
			At: at, AtMS: trace.MS(at), Rule: rule, Target: key[len(rule)+1:], State: "resolved",
		})
	}
}

// Alerts returns the full chronological alert log.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	return e.log
}

// Firing returns the names of currently firing rule/target pairs, sorted,
// formatted "rule(target)".
func (e *Engine) Firing() []string {
	if e == nil {
		return nil
	}
	out := make([]string, 0, len(e.firing))
	for key := range e.firing {
		for i := 0; i < len(key); i++ {
			if key[i] == 0 {
				out = append(out, key[:i]+"("+key[i+1:]+")")
				break
			}
		}
	}
	sort.Strings(out)
	return out
}

// BurnRate is the multi-window SLO burn-rate rule: a session fires when
// its bad-completion fraction, expressed as a multiple of the SLO error
// budget (1 - Target), exceeds Threshold over both the short and the long
// trailing window. Requiring both windows makes the alert fast on real
// incidents yet self-clearing once the short window recovers.
type BurnRate struct {
	Target    float64       // SLO attainment target; 0 = metrics.GoodputTarget
	Short     time.Duration // fast window; 0 = 1s
	Long      time.Duration // slow window; 0 = 5s
	Threshold float64       // burn multiple to fire at; 0 = 4
	MinSent   float64       // minimum finished requests in Long; 0 = 20
}

// Name implements Rule.
func (r BurnRate) Name() string { return "slo-burn-rate" }

// Window implements Rule.
func (r BurnRate) Window() time.Duration {
	if r.Long <= 0 {
		return 5 * time.Second
	}
	return r.Long
}

// Check implements Rule.
func (r BurnRate) Check(h *History) []Violation {
	target, short, long, thr, minSent := r.Target, r.Short, r.Long, r.Threshold, r.MinSent
	if target <= 0 {
		target = metrics.GoodputTarget
	}
	if short <= 0 {
		short = time.Second
	}
	if long <= 0 {
		long = 5 * time.Second
	}
	if thr <= 0 {
		thr = 4
	}
	if minSent <= 0 {
		minSent = 20
	}
	budget := 1 - target
	if budget <= 0 {
		return nil
	}
	last := h.Latest()
	if last == nil {
		return nil
	}
	var out []Violation
	for _, key := range last.Keys("session_good_total") {
		sid := LabelValue(key, "session")
		burn := func(w time.Duration) (float64, float64, bool) {
			good, ok1 := h.CounterDelta(Key("session_good_total", "session", sid), w)
			bad, ok2 := h.CounterDelta(Key("session_bad_total", "session", sid), w)
			if !ok1 || !ok2 || good+bad == 0 {
				return 0, 0, false
			}
			frac := bad / (good + bad)
			return frac / budget, good + bad, true
		}
		bs, _, oks := burn(short)
		bl, nl, okl := burn(long)
		if !oks || !okl || nl < minSent {
			continue
		}
		if bs >= thr && bl >= thr {
			out = append(out, Violation{
				Target: sid,
				Value:  bs,
				Detail: fmt.Sprintf("burn %.1fx budget over %v, %.1fx over %v (target %.2f%%)", bs, short, bl, long, 100*target),
			})
		}
	}
	return out
}

// QueueSaturation fires when a backend's queue depth sits at or above
// Limit for Consecutive successive samples.
type QueueSaturation struct {
	Limit       float64 // 0 = 256
	Consecutive int     // 0 = 2
}

// Name implements Rule.
func (r QueueSaturation) Name() string { return "queue-saturation" }

// Window implements Rule.
func (r QueueSaturation) Window() time.Duration { return 10 * time.Second }

// Check implements Rule.
func (r QueueSaturation) Check(h *History) []Violation {
	limit, consec := r.Limit, r.Consecutive
	if limit <= 0 {
		limit = 256
	}
	if consec <= 0 {
		consec = 2
	}
	snaps := h.Snapshots()
	if len(snaps) < consec {
		return nil
	}
	last := h.Latest()
	var out []Violation
	for _, key := range last.Keys("backend_queue_depth") {
		ok := true
		for i := 0; i < consec; i++ {
			v, present := snaps[len(snaps)-1-i].Gauge(key)
			if !present || v < limit {
				ok = false
				break
			}
		}
		if ok {
			v, _ := last.Gauge(key)
			out = append(out, Violation{
				Target: LabelValue(key, "backend"),
				Value:  v,
				Detail: fmt.Sprintf("queue depth %.0f >= %.0f for %d samples", v, limit, consec),
			})
		}
	}
	return out
}

// Straggler flags a GPU whose mean execute latency in the last window is a
// z-score outlier against the fleet. The Ratio guard keeps near-zero
// fleet variance from amplifying noise into alerts.
type Straggler struct {
	ZScore   float64 // 0 = 1.5 (note: max attainable z among 4 peers is ~1.73)
	Ratio    float64 // also require mean >= Ratio × fleet mean; 0 = 1.5
	MinPeers int     // 0 = 3
	MinCount uint64  // min batches in the window per considered GPU; 0 = 3
}

// Name implements Rule.
func (r Straggler) Name() string { return "gpu-straggler" }

// Window implements Rule.
func (r Straggler) Window() time.Duration { return 5 * time.Second }

// Check implements Rule.
func (r Straggler) Check(h *History) []Violation {
	z, ratio, minPeers, minCount := r.ZScore, r.Ratio, r.MinPeers, r.MinCount
	if z <= 0 {
		z = 1.5
	}
	if ratio <= 0 {
		ratio = 1.5
	}
	if minPeers <= 0 {
		minPeers = 3
	}
	if minCount == 0 {
		minCount = 3
	}
	last := h.Latest()
	if last == nil {
		return nil
	}
	type peer struct {
		id   string
		mean float64
	}
	var peers []peer
	for _, key := range last.Keys("backend_exec_ms") {
		w, ok := last.Windows[key]
		if !ok || w.Count < minCount {
			continue
		}
		peers = append(peers, peer{id: LabelValue(key, "backend"), mean: w.MeanMS})
	}
	if len(peers) < minPeers {
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
	var out []Violation
	for _, p := range peers {
		score := (p.mean - mu) / sigma
		if score >= z && p.mean >= ratio*mu {
			out = append(out, Violation{
				Target: p.id,
				Value:  score,
				Detail: fmt.Sprintf("exec mean %.2fms vs fleet %.2fms (z=%.2f over %d GPUs)", p.mean, mu, score, len(peers)),
			})
		}
	}
	return out
}

// BackendFlap fires when a backend's up/down state changes at least
// Transitions times within the trailing window — a crash/restart loop the
// scheduler keeps chasing.
type BackendFlap struct {
	Win         time.Duration // 0 = 10s
	Transitions int           // 0 = 3
}

// Name implements Rule.
func (r BackendFlap) Name() string { return "backend-flap" }

// Window implements Rule.
func (r BackendFlap) Window() time.Duration {
	if r.Win <= 0 {
		return 10 * time.Second
	}
	return r.Win
}

// Check implements Rule.
func (r BackendFlap) Check(h *History) []Violation {
	win, min := r.Win, r.Transitions
	if win <= 0 {
		win = 10 * time.Second
	}
	if min <= 0 {
		min = 3
	}
	last := h.Latest()
	if last == nil {
		return nil
	}
	var out []Violation
	for _, key := range last.Keys("backend_up") {
		if n := h.Transitions(key, win); n >= min {
			out = append(out, Violation{
				Target: LabelValue(key, "backend"),
				Value:  float64(n),
				Detail: fmt.Sprintf("%d up/down transitions in %v", n, win),
			})
		}
	}
	return out
}

// DefaultRules returns the standard rule set with default thresholds.
func DefaultRules() []Rule {
	return []Rule{BurnRate{}, QueueSaturation{}, Straggler{}, BackendFlap{}}
}
