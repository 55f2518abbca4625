package telemetry

import (
	"time"
)

// DefaultInterval is the sampling period used when Config.Interval is 0.
const DefaultInterval = 500 * time.Millisecond

// Config enables the telemetry plane on a deployment.
type Config struct {
	// Interval is the virtual-time sampling period (0 = DefaultInterval).
	Interval time.Duration
}

// Collector owns the registry, the snapshot stream, the alert rules' state
// and log, and the health-report log for one deployment. It holds no lock:
// every call runs on the simulation goroutine or after the run, and the
// snapshot and alert streams reach other tools through the observation
// log. The nil Collector accepts every call and does nothing.
type Collector struct {
	cfg    Config
	reg    *Registry
	snaps  []Snapshot
	firing map[alertKey]bool // rule targets currently firing
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
	return &Collector{cfg: cfg, reg: NewRegistry(), firing: make(map[alertKey]bool)}
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

// Tick samples the registry at virtual time `at`, appends the sample to
// the snapshot stream and evaluates the alert rules over it. Duplicate
// timestamps (e.g. a flush landing on a tick boundary) are dropped so the
// stream stays strictly increasing.
func (c *Collector) Tick(at time.Duration) {
	if c == nil {
		return
	}
	if n := len(c.snaps); n > 0 && c.snaps[n-1].At >= at {
		return
	}
	c.snaps = append(c.snaps, c.reg.Sample(at))
	logged := len(c.alerts)
	for _, r := range rules {
		c.apply(r.name, at, r.check(c.snaps))
	}
	if c.onAlert != nil {
		for _, a := range c.alerts[logged:] {
			if a.State == "firing" {
				c.onAlert(a)
			}
		}
	}
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
	return c.alerts
}

// AddHealth appends a per-epoch health report, stamping it with the alerts
// firing at plan time.
func (c *Collector) AddHealth(h HealthReport) {
	if c == nil {
		return
	}
	h.FiringAlerts = c.firingNames()
	c.health = append(c.health, h)
}

// Health returns the per-epoch health reports.
func (c *Collector) Health() []HealthReport {
	if c == nil {
		return nil
	}
	return c.health
}
