// Package nexus is a Go reproduction of "Nexus: A GPU Cluster Engine for
// Accelerating DNN-Based Video Analysis" (SOSP 2019).
//
// Nexus serves DNN inference from a cluster of GPUs at high utilization
// under latency SLOs. Its key ideas, all implemented here, are:
//
//   - Squishy bin packing (§6.1): batching-aware allocation of model
//     sessions to GPUs, where the "size" of a workload shrinks as its
//     batch grows.
//   - Complex query scheduling (§6.2): dataflow queries carry a single
//     whole-query SLO, split optimally across stages by dynamic
//     programming.
//   - Prefix batching (§6.3): transfer-learned model variants that share
//     all but their last layers execute the shared prefix as one batch.
//   - Batch-aware dispatch (§4.3): early-drop admission control keeps
//     batches efficient under bursty arrivals.
//
// Because real GPUs are not required (or available) for the scheduling
// research this package supports, execution happens on a deterministic
// discrete-event GPU simulator calibrated to the latencies the paper
// reports; see DESIGN.md for the substitution argument.
//
// The quickest start:
//
//	d, _ := nexus.NewDeployment(nexus.Config{
//	    System: nexus.SystemNexus, Features: nexus.AllFeatures(), GPUs: 4,
//	})
//	_ = d.AddSession(nexus.SessionSpec{
//	    ID: "demo", ModelID: nexus.ResNet50,
//	    SLO: 100 * time.Millisecond, ExpectedRate: 500,
//	}, nil)
//	badRate, _ := d.Run(30 * time.Second)
package nexus

import (
	"time"

	"nexus/internal/apps"
	"nexus/internal/cluster"
	"nexus/internal/globalsched"
	"nexus/internal/metrics"
	"nexus/internal/model"
	"nexus/internal/profiler"
	"nexus/internal/queryopt"
	"nexus/internal/scheduler"
)

// Deployment is a full simulated Nexus cluster: elastic GPU pool,
// frontend, global scheduler, and workload drivers.
type Deployment = cluster.Deployment

// Config configures a deployment.
type Config = cluster.Config

// System selects which serving system a deployment runs.
type System = cluster.System

// The serving systems compared in the paper's evaluation (§7.2).
const (
	SystemNexus         = cluster.Nexus
	SystemNexusParallel = cluster.NexusParallel
	SystemClipper       = cluster.Clipper
	SystemTFServing     = cluster.TFServing
)

// Features are the Nexus ablation switches (§7.3): prefix batching,
// squishy scheduling, early drop, CPU/GPU overlap, query analysis.
type Features = cluster.Features

// AllFeatures enables full Nexus.
func AllFeatures() Features { return cluster.AllFeatures() }

// NewDeployment creates a deployment.
func NewDeployment(cfg Config) (*Deployment, error) { return cluster.New(cfg) }

// SessionSpec declares a standalone model session: a model served under a
// latency SLO.
type SessionSpec = globalsched.SessionSpec

// QuerySpec declares a complex query with an expected root rate.
type QuerySpec = globalsched.QuerySpec

// Query is a dataflow query over multiple models with one whole-query SLO.
type Query = queryopt.Query

// QueryNode is one model stage in a query.
type QueryNode = queryopt.Node

// QueryEdge connects a stage to a child with a fan-out factor gamma.
type QueryEdge = queryopt.Edge

// Session is a scheduling-level session (model, SLO, rate).
type Session = scheduler.Session

// Plan is a cluster schedule produced by the packing algorithms.
type Plan = scheduler.Plan

// SchedConfig tunes the packing algorithms.
type SchedConfig = scheduler.Config

// Profile is a batching profile: ℓ(b) = αb + β plus CPU and memory costs.
type Profile = profiler.Profile

// GPUType names a simulated device model.
type GPUType = profiler.GPUType

// Supported GPU types.
const (
	GTX1080Ti = profiler.GTX1080Ti
	K80       = profiler.K80
	V100      = profiler.V100
)

// Catalog model IDs (Table 1 and §7 workloads).
const (
	LeNet5       = model.LeNet5
	VGG7         = model.VGG7
	ResNet50     = model.ResNet50
	Inception4   = model.Inception4
	InceptionV3  = model.InceptionV3
	Darknet53    = model.Darknet53
	SSD          = model.SSD
	VGGFace      = model.VGGFace
	GoogLeNetCar = model.GoogLeNetCar
)

// Catalog returns a new model database holding the built-in models. Every
// such database shares one read-only copy of those models, so callers must
// not mutate them; models registered later belong to that database alone.
func Catalog() *model.DB { return model.Catalog() }

// Pack runs squishy bin packing (Algorithm 1) over sessions and returns
// the cluster plan.
func Pack(sessions []Session, profiles map[string]*Profile, cfg SchedConfig) (*Plan, error) {
	return scheduler.Pack(sessions, profiles, cfg)
}

// ValidatePlan checks a plan against sessions: duty-cycle feasibility,
// worst-case SLO satisfaction, throughput coverage and memory limits.
func ValidatePlan(plan *Plan, sessions []Session, profiles map[string]*Profile, cfg SchedConfig) error {
	return scheduler.Validate(plan, sessions, profiles, cfg)
}

// OptimizeQuery computes the GPU-minimizing latency split for a query at
// the given root rate (§6.2).
func OptimizeQuery(q *Query, rootRate float64, profiles map[string]*Profile, eps time.Duration) (map[string]time.Duration, float64, error) {
	split, err := queryopt.Optimize(q, rootRate, profiles, eps, scheduler.Config{})
	if err != nil {
		return nil, 0, err
	}
	return split.Budgets, split.GPUs, nil
}

// CombinedProfile builds the batching profile of a prefix group: k
// variants sharing all compute except a suffix holding suffixFLOPFrac of
// the FLOPs (§6.3 "Prefix Batching").
func CombinedProfile(base *Profile, suffixFLOPFrac float64, k int) (*Profile, error) {
	return profiler.CombinedProfile(base, suffixFLOPFrac, k)
}

// SeparateVariantsProfile models serving k variants WITHOUT prefix
// batching on one GPU: k full sub-batches and k full model replicas (the
// Figure 15 baseline).
func SeparateVariantsProfile(base *Profile, k int) (*Profile, error) {
	return profiler.SeparateVariantsProfile(base, k)
}

// CatalogProfiles derives batching profiles for every calibrated model in
// the DB (including "-vN" specialized variants), keyed by model ID, for
// one GPU type.
func CatalogProfiles(mdb *model.DB, gpu GPUType) (map[string]*Profile, error) {
	pdb, err := profiler.CatalogProfiles(mdb)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Profile)
	for _, id := range mdb.IDs() {
		if p, err := pdb.Get(id, gpu); err == nil {
			out[id] = p
		}
	}
	return out, nil
}

// MaxGoodput finds the maximum request rate at which the deployment built
// by build keeps at least 99% of requests within their SLOs (the paper's
// throughput metric, §7). Each probe runs `dur` of virtual time. The search
// bisects, evaluating lo and hi together first, so build may be called
// from two goroutines at once: each call must build its own deployment.
func MaxGoodput(lo, hi float64, dur time.Duration, build func(rate float64) (*Deployment, error)) float64 {
	eval := func(rate float64) float64 {
		d, err := build(rate)
		if err != nil {
			return 1
		}
		bad, err := d.Run(dur)
		if err != nil {
			return 1 // e.g. pool exhausted: rate not servable
		}
		return bad
	}
	return metrics.MaxGoodputK(lo, hi, metrics.GoodputTarget, 0.02, 1, eval)
}

// AppBuilder constructs one of the paper's applications (Table 4) against
// a deployment's model database.
type AppBuilder = apps.Builder

// The seven evaluated applications.
var (
	AppGame      = apps.Game
	AppTraffic   = apps.Traffic
	AppDance     = apps.Dance
	AppBillboard = apps.Billboard
	AppBike      = apps.Bike
	AppAmber     = apps.Amber
	AppLogo      = apps.Logo
	AllApps      = apps.All
)

// DeployApp installs an application onto a deployment.
func DeployApp(d *Deployment, build AppBuilder) error {
	_, err := apps.Deploy(d, build)
	return err
}
