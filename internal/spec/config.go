package spec

import (
	"flag"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"time"

	"nexus/internal/cluster"
	"nexus/internal/forensics"
	"nexus/internal/frontend"
	"nexus/internal/profiler"
	"nexus/internal/scheduler"
	"nexus/internal/telemetry"
)

// Config declares every cluster knob once: one field per knob, with its
// JSON key and help text. Each knob whose value is a scalar is also a
// nexus-sim flag, named after its key without the "_sec" unit suffix and
// with dashes ("lease_ttl_sec" is -lease-ttl). Fields named like a
// cluster.Config field map onto it (see Cluster).
type Config struct {
	System       string            `json:"system" usage:"nexus | nexus-parallel | clipper | tfserving"`
	GPUs         int               `json:"gpus" usage:"GPU pool size"`
	GPU          string            `json:"gpu" usage:"GPU type: gtx1080ti | k80 | v100"`
	Epoch        Seconds           `json:"epoch_sec" usage:"control-plane epoch (0 = 30s)"`
	Seed         int64             `json:"seed" usage:"workload seed"`
	FixedCluster bool              `json:"fixed" usage:"treat the pool as a fixed cluster (spread spare GPUs)"`
	Features     *cluster.Features `json:"features"` // Nexus optimizations; absent = all on

	NetDelay         Seconds `json:"net_delay_sec" usage:"one-way frontend<->backend latency (negative = 500µs)"`
	Warmup           Seconds `json:"warmup_sec" usage:"initial interval left out of statistics (0 = 2s, negative = none)"`
	PlanningSlack    Seconds `json:"planning_slack_sec" usage:"control-plane SLO slack (0 = from the network delay, negative = none)"`
	Frontends        int     `json:"frontends" usage:"frontend replicas to load-balance requests across (0 = 1)"`
	DeferDropped     bool    `json:"defer" usage:"serve would-be-dropped requests late at low priority (§5 alternative)"`
	Placement        string  `json:"placement" usage:"packer multiplexing: temporal | spatial | hybrid"`
	SliceGranularity int     `json:"slice_granularity" usage:"compute-slice steps per GPU for spatial placement (0 = 8)"`

	PlannerShards  int     `json:"shards" usage:"partition epoch planning across N parallel shards (0 and 1 = one unpartitioned shard)"`
	PlanHysteresis float64 `json:"plan_hysteresis" usage:"relative rate band within which a quiet shard skips re-planning (0 = off)"`

	TraceCapacity     int     `json:"trace" usage:"record and print the last N request lifecycle events"`
	Audit             bool    `json:"audit" usage:"keep and print the control-plane audit log"`
	Telemetry         Seconds `json:"telemetry_sec" usage:"live telemetry sampling interval (0 = off)"`
	Forensics         bool    `json:"forensics" usage:"arm the flight recorder (implies tracing, -audit, and -telemetry)"`
	ForensicsWindow   Seconds `json:"forensics_window_sec" usage:"capture horizon before each anomaly (0 = 5s; implies -forensics)"`
	ForensicsMaxDumps int     `json:"forensics_max_dumps" usage:"dump bundles kept; later triggers are only counted (0 = 8; needs -forensics)"`
	ForensicsCooldown Seconds `json:"forensics_cooldown_sec" usage:"span after a dump in which triggers are suppressed (0 = the window; needs -forensics)"`

	Heartbeat               Seconds `json:"heartbeat_sec" usage:"backend heartbeat period for failure detection (0 = off)"`
	LeaseMisses             int     `json:"lease_misses" usage:"missed beats before a backend is declared dead (0 = 3; needs -heartbeat)"`
	RouteLeaseTTL           Seconds `json:"lease_ttl_sec" usage:"routing-table lease TTL on each frontend (0 = no leases)"`
	ServeStale              bool    `json:"serve_stale" usage:"keep routing on an expired lease instead of dropping (needs -lease-ttl)"`
	RetryBudget             int     `json:"retry_budget" usage:"dispatch retries per request on a dead or unreachable backend (0 = off)"`
	RetryBackoff            Seconds `json:"retry_backoff_sec" usage:"wait before the first retry, doubling per attempt (0 = re-send at once)"`
	BreakerThreshold        int     `json:"breaker" usage:"consecutive dispatch failures that open a backend's circuit breaker (0 = off)"`
	BreakerCooloff          Seconds `json:"breaker_cooloff_sec" usage:"open-breaker cooloff before a half-open probe (needs -breaker)"`
	RecoveryMaxRouteChanges int     `json:"recovery_cap" usage:"max per-session route changes per post-outage push (0 = uncapped)"`
	// Admission maps session IDs to token-bucket admission policies.
	Admission             map[string]frontend.AdmissionConfig `json:"admission"`
	AdmissionReserveRate  float64                             `json:"admission_reserve_rate" usage:"refill rate of the shared priority reserve (req/s; needs admission)"`
	AdmissionReserveBurst float64                             `json:"admission_reserve_burst" usage:"depth of the shared priority reserve (needs admission)"`
}

// Defaults returns the knob values a document starts from: a key it omits
// keeps its value here, and every knob not listed is zero.
func Defaults() Config {
	return Config{
		System: string(cluster.Nexus), GPU: string(profiler.GTX1080Ti), Placement: "temporal",
		RetryBackoff: 0.001, BreakerCooloff: 1,
	}
}

// Flags registers the flag of every scalar knob, bound to c's field and
// defaulting to its current value.
func (c *Config) Flags(fs *flag.FlagSet) {
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		name := strings.ReplaceAll(strings.TrimSuffix(f.Tag.Get("json"), "_sec"), "_", "-")
		usage := f.Tag.Get("usage")
		switch p := v.Field(i).Addr().Interface().(type) {
		case *string:
			fs.StringVar(p, name, *p, usage)
		case *int:
			fs.IntVar(p, name, *p, usage)
		case *int64:
			fs.Int64Var(p, name, *p, usage)
		case *float64:
			fs.Float64Var(p, name, *p, usage)
		case *bool:
			fs.BoolVar(p, name, *p, usage)
		case *Seconds:
			fs.Var(p, name, usage)
		}
	}
}

// Validate checks the knobs' values.
func (c *Config) Validate() error {
	if c.GPUs < 1 {
		return fmt.Errorf("spec: gpus must be >= 1")
	}
	switch c.System {
	case "", string(cluster.Nexus), string(cluster.NexusParallel),
		string(cluster.Clipper), string(cluster.TFServing):
	default:
		return fmt.Errorf("spec: unknown system %q", c.System)
	}
	if gpus := profiler.ProfiledGPUs(); c.GPU != "" && !slices.Contains(gpus, profiler.GPUType(c.GPU)) {
		return fmt.Errorf("spec: unknown gpu %q (valid: %v)", c.GPU, gpus)
	}
	if _, ok := placements[c.Placement]; !ok {
		return fmt.Errorf("spec: unknown placement %q (temporal|spatial|hybrid)", c.Placement)
	}
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, key := v.Field(i), v.Type().Field(i).Tag.Get("json")
		if s, ok := f.Interface().(Seconds); ok && math.Abs(float64(s))*1e9 >= 1<<63 {
			return fmt.Errorf("spec: %s out of range", key)
		}
		// A negative value means something only for these keys.
		switch key {
		case "seed", "net_delay_sec", "warmup_sec", "planning_slack_sec":
			continue
		}
		if f.CanInt() && f.Int() < 0 || f.CanFloat() && f.Float() < 0 {
			return fmt.Errorf("spec: %s must not be negative, got %v", key, f.Interface())
		}
	}
	return nil
}

var placements = map[string]scheduler.Placement{
	"temporal": scheduler.PlaceTemporal,
	"spatial":  scheduler.PlaceSpatial,
	"hybrid":   scheduler.PlaceHybrid,
}

// Cluster maps the knobs onto a cluster configuration. A knob named like a
// cluster.Config field of a convertible type copies onto it; the rest are
// mapped here. Telemetry is on when its interval is set, the flight
// recorder when Forensics or its window is.
func (c *Config) Cluster() cluster.Config {
	cfg := cluster.Config{Features: cluster.AllFeatures(), Placement: placements[c.Placement]}
	src, dst := reflect.ValueOf(c).Elem(), reflect.ValueOf(&cfg).Elem()
	for i := 0; i < src.NumField(); i++ {
		from, to := src.Field(i), dst.FieldByName(src.Type().Field(i).Name)
		if s, ok := from.Interface().(Seconds); ok {
			from = reflect.ValueOf(s.Duration())
		}
		if to.IsValid() && from.Type().ConvertibleTo(to.Type()) {
			to.Set(from.Convert(to.Type()))
		}
	}
	if c.Features != nil {
		cfg.Features = *c.Features
	}
	if cfg.System == "" {
		cfg.System = cluster.Nexus
	}
	if c.Telemetry > 0 {
		cfg.Telemetry = &telemetry.Config{Interval: c.Telemetry.Duration()}
	}
	if c.Forensics || c.ForensicsWindow > 0 {
		cfg.Forensics = &forensics.Config{
			Window: c.ForensicsWindow.Duration(), MaxDumps: c.ForensicsMaxDumps,
			Cooldown: c.ForensicsCooldown.Duration(),
		}
	}
	return cfg
}

// Seconds is a knob duration: a number of seconds in JSON, Go duration
// syntax ("10s", "1ms") as a flag.
type Seconds float64

// Duration converts s, rounded to the nanosecond.
func (s Seconds) Duration() time.Duration { return time.Duration(math.Round(float64(s) * 1e9)) }

// String formats s in Go duration syntax.
func (s *Seconds) String() string { return s.Duration().String() }

// Set parses Go duration syntax.
func (s *Seconds) Set(v string) error {
	d, err := time.ParseDuration(v)
	*s = Seconds(d.Seconds())
	return err
}
