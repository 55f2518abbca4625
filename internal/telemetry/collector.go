package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultInterval is the sampling period used when Config.Interval is 0.
const DefaultInterval = 500 * time.Millisecond

// Config enables the telemetry plane on a deployment.
type Config struct {
	// Interval is the virtual-time sampling period (0 = DefaultInterval).
	Interval time.Duration
	// Rules is the alerting rule set; nil = DefaultRules(). An explicit
	// empty slice disables alerting while keeping snapshots.
	Rules []Rule
	// WallTimings additionally measures real (wall-clock) control-plane
	// plan time. Off by default: wall time is nondeterministic, and leaving
	// it out keeps the snapshot stream byte-identical across runs.
	WallTimings bool
	// SelfObserve additionally exports runtime self-observability gauges
	// (goroutine count, heap bytes, cumulative GC pause, send-arena reuse
	// rate). Off by default: runtime state is
	// nondeterministic, like WallTimings, and leaving it out keeps the
	// snapshot stream byte-identical across runs and worker counts.
	SelfObserve bool
}

// Collector owns the registry, the snapshot stream, the alert engine, and
// the health-report log for one deployment. Sampling happens on the
// simulation goroutine; the latest snapshot, the alert log, and the health
// log are additionally published under a mutex so a live HTTP scrape
// handler can read them from another goroutine without racing the
// simulation. Both logs are append-only, so a published slice stays valid
// while the simulation appends past its end. The nil Collector accepts
// every call and does nothing.
type Collector struct {
	cfg    Config
	reg    *Registry
	engine *Engine
	snaps  []Snapshot

	mu     sync.Mutex
	latest Snapshot
	has    bool
	alerts []Alert
	health []HealthReport

	// onAlert sees each new firing transition during Tick, on the
	// simulation goroutine: the flight recorder's dump trigger.
	onAlert func(Alert)
}

// NewCollector builds a collector, resolving config defaults.
func NewCollector(cfg Config) *Collector {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	rules := cfg.Rules
	if rules == nil {
		rules = DefaultRules()
	}
	return &Collector{cfg: cfg, reg: NewRegistry(), engine: NewEngine(rules)}
}

// Interval returns the resolved sampling period.
func (c *Collector) Interval() time.Duration {
	if c == nil {
		return 0
	}
	return c.cfg.Interval
}

// WallTimings reports whether real plan-time measurement was requested.
func (c *Collector) WallTimings() bool { return c != nil && c.cfg.WallTimings }

// SelfObserve reports whether runtime self-observability was requested.
func (c *Collector) SelfObserve() bool { return c != nil && c.cfg.SelfObserve }

// SetOnAlert installs a hook that sees each new firing alert transition,
// invoked on the simulation goroutine during the tick that fired it.
// Resolved transitions are not delivered: the flight recorder dumps on
// anomaly onset, not on all-clear.
func (c *Collector) SetOnAlert(fn func(Alert)) {
	if c == nil {
		return
	}
	c.onAlert = fn
}

// Registry returns the live instrument registry (nil for a nil collector,
// whose instruments then no-op).
func (c *Collector) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// Tick samples the registry at virtual time `at`, feeds the alert engine,
// appends to the snapshot stream, and publishes the snapshot for
// concurrent scrapes. Duplicate timestamps (e.g. a flush landing on a tick
// boundary) are dropped so the stream stays strictly increasing.
func (c *Collector) Tick(at time.Duration) {
	if c == nil {
		return
	}
	if n := len(c.snaps); n > 0 && c.snaps[n-1].At >= at {
		return
	}
	s := c.reg.Sample(at)
	before := len(c.engine.Alerts())
	c.engine.Observe(s)
	if c.onAlert != nil {
		for _, a := range c.engine.Alerts()[before:] {
			if a.State == "firing" {
				c.onAlert(a)
			}
		}
	}
	c.snaps = append(c.snaps, s)
	c.mu.Lock()
	c.latest = s
	c.has = true
	c.alerts = c.engine.Alerts()
	c.mu.Unlock()
}

// Snapshots returns the full snapshot stream.
func (c *Collector) Snapshots() []Snapshot {
	if c == nil {
		return nil
	}
	return c.snaps
}

// Latest returns a copy of the most recent snapshot. Safe to call from any
// goroutine while the simulation runs.
func (c *Collector) Latest() (Snapshot, bool) {
	if c == nil {
		return Snapshot{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.latest, c.has
}

// Alerts returns the chronological alert log. Safe to call from any
// goroutine while the simulation runs.
func (c *Collector) Alerts() []Alert {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alerts
}

// Firing returns the currently firing rule(target) pairs, sorted.
func (c *Collector) Firing() []string {
	if c == nil {
		return nil
	}
	return c.engine.Firing()
}

// AddHealth appends a per-epoch health report, stamping it with the alerts
// firing at plan time.
func (c *Collector) AddHealth(h HealthReport) {
	if c == nil {
		return
	}
	h.FiringAlerts = c.engine.Firing()
	c.mu.Lock()
	c.health = append(c.health, h)
	c.mu.Unlock()
}

// Health returns the per-epoch health reports. Safe to call from any
// goroutine while the simulation runs.
func (c *Collector) Health() []HealthReport {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.health
}

// WriteAlertsText renders the alert log for terminals.
func (c *Collector) WriteAlertsText(w io.Writer) error {
	for _, a := range c.Alerts() {
		line := fmt.Sprintf("t=%8.3fs  %-8s %s(%s)", a.AtMS/1000, a.State, a.Rule, a.Target)
		if a.State == "firing" {
			line += fmt.Sprintf("  value=%.2f  %s", a.Value, a.Detail)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// WriteHealthText renders every epoch's health report for terminals.
func (c *Collector) WriteHealthText(w io.Writer) error {
	health := c.Health()
	for i := range health {
		if err := health[i].WriteText(w); err != nil {
			return err
		}
	}
	return nil
}
