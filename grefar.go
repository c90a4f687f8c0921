// Package grefar is a Go implementation of GreFar, the provably-efficient
// online algorithm for scheduling batch jobs across geographically
// distributed data centers from "Provably-Efficient Job Scheduling for
// Energy and Fairness in Geographically Distributed Data Centers"
// (Ren, He, Xu — ICDCS 2012).
//
// GreFar minimizes an energy-fairness cost subject to queueing-delay
// guarantees using Lyapunov drift-plus-penalty optimization: each slot it
// observes only the current electricity prices, server availability, and
// queue backlogs, and solves a small convex program. Theorem 1 of the paper
// guarantees the time-average cost is within O(1/V) of the optimal T-step
// lookahead policy while all queues stay O(V).
//
// This package is the public facade over the implementation packages: the
// domain model, the scheduler and its baselines, the time-slot simulator,
// the stochastic input generators, the distributed controller/agent
// deployment, and the telemetry layer. A minimal session:
//
//	inputs, _ := grefar.ReferenceInputs(2012, 2000)
//	scheduler, _ := grefar.New(inputs.Cluster, grefar.WithV(7.5), grefar.WithBeta(100))
//	result, _ := grefar.Simulate(inputs, scheduler, grefar.WithSlots(2000))
//	fmt.Println(result.AvgEnergy, result.AvgFairness, result.AvgLocalDelay)
//
// Construction uses functional options (WithV, WithBeta, WithTelemetry,
// WithSlots, ...). The former struct-based style still works — Config and
// SimOptions satisfy the Option and SimOption interfaces themselves — so
// grefar.New(cluster, grefar.Config{V: 7.5}) remains valid, deprecated in
// favor of the options.
//
// For observability, pass WithTelemetry(reg) to New or Simulate and expose
// reg over HTTP (it is an http.Handler), or stream per-slot records with
// NewJSONLObserver:
//
//	reg := grefar.NewRegistry()
//	scheduler, _ := grefar.New(inputs.Cluster, grefar.WithV(7.5), grefar.WithTelemetry(reg))
//	result, _ := grefar.Simulate(inputs, scheduler, grefar.WithSlots(2000), grefar.WithTelemetry(reg))
//	http.Handle("/metrics", reg)
package grefar

import (
	"grefar/internal/core"
	"grefar/internal/fairness"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/solve"
	"grefar/internal/tariff"
	"grefar/internal/telemetry"
	"grefar/internal/workload"
)

// Domain model types (see internal/model for full documentation).
type (
	// Cluster is the static system description: data centers, job types,
	// and accounts.
	Cluster = model.Cluster
	// DataCenter is one geographically distinct site.
	DataCenter = model.DataCenter
	// ServerType describes one server class: speed s_k and active power p_k.
	ServerType = model.ServerType
	// JobType is the paper's y_j = {d_j, D_j, rho_j}.
	JobType = model.JobType
	// Account is an organization sharing the cluster, with target share
	// gamma_m.
	Account = model.Account
	// State is x(t): per-site availability and electricity price.
	State = model.State
	// Action is z(t): routing, processing, and busy-server decisions.
	Action = model.Action
)

// Scheduling types.
type (
	// Scheduler is the policy abstraction: GreFar and the baselines all
	// implement it.
	Scheduler = sched.Scheduler
	// Config carries GreFar's control knobs V (cost-delay) and Beta
	// (energy-fairness).
	Config = core.Config
	// FWOptions tunes the Frank-Wolfe solver used when beta > 0 (see
	// WithFrankWolfe).
	FWOptions = solve.FWOptions
	// QueueLengths is the backlog snapshot Theta(t) a Scheduler observes.
	QueueLengths = queue.Lengths
)

// Simulation types.
type (
	// SimInputs bundles the cluster with its stochastic drivers.
	SimInputs = sim.Inputs
	// SimOptions tunes a simulation run.
	SimOptions = sim.Options
	// SimResult carries the metrics of a run.
	SimResult = sim.Result
)

// New builds a GreFar scheduler for the cluster (Algorithm 1 of the paper),
// configured by functional options:
//
//	grefar.New(cluster, grefar.WithV(7.5), grefar.WithBeta(100), grefar.WithTelemetry(reg))
//
// Options apply in order. A legacy Config literal is itself an option that
// replaces the whole configuration, so the former call style
// grefar.New(cluster, grefar.Config{V: 7.5, Beta: 100}) builds an identical
// scheduler.
func New(c *Cluster, opts ...Option) (*core.GreFar, error) {
	var cfg Config
	for _, o := range opts {
		if o != nil {
			o.ApplyScheduler(&cfg)
		}
	}
	if c != nil {
		if n, ok := cfg.Observer.(telemetry.DCNamer); ok {
			n.SetDCNames(dataCenterNames(c))
		}
	}
	return core.New(c, cfg)
}

// NewAlways builds the myopic baseline that schedules jobs immediately
// whenever resources are available (paper section VI-B3).
func NewAlways(c *Cluster) (*sched.Always, error) {
	return sched.NewAlways(c)
}

// NewLookaheadPlanner builds the optimal T-step lookahead benchmark of
// Theorem 1 (computed offline by linear programming).
func NewLookaheadPlanner(c *Cluster, t int) (*sched.LookaheadPlanner, error) {
	return sched.NewLookaheadPlanner(c, t)
}

// Simulate drives a scheduler over the horizon and aggregates the paper's
// metrics (running-average energy cost, fairness score, per-site delays),
// configured by functional options:
//
//	grefar.Simulate(in, s, grefar.WithSlots(2000), grefar.WithAdmission(p))
//
// Options apply in order. A legacy SimOptions literal is itself an option
// that replaces the whole option set, so the former call style
// grefar.Simulate(in, s, grefar.SimOptions{Slots: 2000}) runs identically.
func Simulate(in SimInputs, s Scheduler, opts ...SimOption) (*SimResult, error) {
	return sim.Run(in, s, simOptions(in, opts))
}

// simOptions folds the options, in order, into the internal options struct.
func simOptions(in SimInputs, opts []SimOption) SimOptions {
	var opt SimOptions
	for _, o := range opts {
		if o != nil {
			o.ApplySim(&opt)
		}
	}
	if in.Cluster != nil {
		if n, ok := opt.Observer.(telemetry.DCNamer); ok {
			n.SetDCNames(dataCenterNames(in.Cluster))
		}
	}
	return opt
}

// ReferenceInputs assembles the paper's evaluation setup: the Table I
// three-data-center cluster, electricity prices calibrated to the Table I
// averages, the four-organization Cosmos-like workload, and
// slackness-respecting availability, all deterministic in the seed. The
// workload is generated on its first read, so a caller that replaces it
// pays only for the prices and availability.
func ReferenceInputs(seed int64, slots int) (SimInputs, error) {
	return sim.NewReferenceInputs(seed, slots)
}

// ReferenceCluster returns the Table I system description alone, for callers
// that supply their own price, workload, and availability processes.
func ReferenceCluster() *Cluster {
	return model.NewReferenceCluster()
}

// Extension types (paper sections III-A2, III-B footnotes and section V).
type (
	// Tariff maps a site's energy draw to billed cost; convex tariffs are
	// the paper's section III-A2 generalization.
	Tariff = tariff.Tariff
	// FairnessFunction scores allocations (paper eq. 3 or alternatives).
	FairnessFunction = fairness.Function
	// AdmissionPolicy filters arrivals under overload (paper section V).
	AdmissionPolicy = sim.AdmissionPolicy
)

// NewLocalGreedy builds the related-work baseline that optimizes each slot
// locally: price-aware across sites, blind across time (paper section II).
func NewLocalGreedy(c *Cluster) (*sched.LocalGreedy, error) {
	return sched.NewLocalGreedy(c)
}

// NewQuadraticTariff builds a convex demand-charge tariff whose marginal
// price doubles when a site's slot draw reaches scale.
func NewQuadraticTariff(scale float64) (Tariff, error) {
	return tariff.NewQuadratic(scale)
}

// NewTieredTariff builds a block-rate (piecewise-linear convex) tariff.
func NewTieredTariff(limits, multipliers []float64) (Tariff, error) {
	return tariff.NewTiered(limits, multipliers)
}

// NewQuadraticFairness builds the paper's fairness function (eq. 3) for the
// given target shares. It doubles as a core.FairnessTerm for Config.Fairness.
func NewQuadraticFairness(weights []float64) (*fairness.Quadratic, error) {
	return fairness.NewQuadratic(weights)
}

// NewAlphaFairness builds the alpha-fair alternative the paper's footnote 5
// permits. It doubles as a core.FairnessTerm for Config.Fairness.
func NewAlphaFairness(alpha float64, weights []float64) (*fairness.AlphaFair, error) {
	return fairness.NewAlphaFair(alpha, weights)
}

// NewThresholdAdmission builds the tail-drop admission policy for
// SimOptions.Admission, keeping queues bounded under overload.
func NewThresholdAdmission(limit []float64) (*sim.ThresholdAdmission, error) {
	return sim.NewThresholdAdmission(limit)
}

// RawJob is one record of a raw job log before type grouping.
type RawJob = workload.RawJob

// GroupJobs quantizes a raw job log into job types and an arrival trace —
// the paper's "group jobs having approximately the same characteristics into
// the same type" preprocessing step.
func GroupJobs(jobs []RawJob, numAccounts int, opts workload.GroupOptions) ([]JobType, *workload.Trace, error) {
	return workload.GroupJobs(jobs, numAccounts, opts)
}
