package telemetry

import (
	"fmt"
	"io"
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
}

// Collector owns the registry, the snapshot stream, the alert engine, and
// the health-report log for one deployment. It holds no lock: every call
// runs on the simulation goroutine or after the run, and the snapshot and
// alert streams reach other tools through the observation log. The nil
// Collector accepts every call and does nothing.
type Collector struct {
	cfg    Config
	reg    *Registry
	engine *Engine
	snaps  []Snapshot
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
// and appends to the snapshot stream. Duplicate timestamps (e.g. a flush landing on a tick
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
}

// Snapshots returns the full snapshot stream.
func (c *Collector) Snapshots() []Snapshot {
	if c == nil {
		return nil
	}
	return c.snaps
}

// Alerts returns the chronological alert log.
func (c *Collector) Alerts() []Alert {
	if c == nil {
		return nil
	}
	return c.engine.Alerts()
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
	c.health = append(c.health, h)
}

// Health returns the per-epoch health reports.
func (c *Collector) Health() []HealthReport {
	if c == nil {
		return nil
	}
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
