package grefar

import (
	"io"

	"grefar/internal/core"
	"grefar/internal/solve"
	"grefar/internal/telemetry"
)

// Option configures a GreFar scheduler built by New. Options apply in order;
// later options win. The legacy Config struct itself satisfies Option (it
// replaces the whole configuration), so the pre-options call style
// grefar.New(cluster, grefar.Config{V: 7.5}) keeps working unchanged.
type Option interface {
	ApplyScheduler(*Config)
}

// SimOption configures a simulation run driven by Simulate. Options apply in
// order; later options win. The legacy SimOptions struct itself satisfies
// SimOption, so grefar.Simulate(in, s, grefar.SimOptions{Slots: 2000}) keeps
// working unchanged.
type SimOption interface {
	ApplySim(*SimOptions)
}

// SessionOption configures a Session built by Open (or Restore). Scheduler
// knobs, run options, and observers all configure sessions too — their
// constructors return combined interfaces — so the same WithV/WithCheck/
// WithTelemetry calls work across Simulate and Open. Inputs arrive via
// WithInputs.
type SessionOption interface {
	applySession(*sessionConfig)
}

// sessionConfig accumulates session options: the scheduler side, the
// per-slot engine side, and the inputs.
type sessionConfig struct {
	inputs     SimInputs
	haveInputs bool
	sched      Config
	sim        SimOptions
}

// SchedulerOption configures a scheduler — accepted by New and by Open.
type SchedulerOption interface {
	Option
	SessionOption
}

// RunOption configures the per-slot control loop — accepted by Simulate and
// by Open.
type RunOption interface {
	SimOption
	SessionOption
}

// SchedulerSimOption is accepted everywhere — New, Simulate, and Open —
// because observer wiring is meaningful on either side of the control loop.
type SchedulerSimOption interface {
	Option
	SimOption
	SessionOption
}

type optionFunc func(*Config)

func (f optionFunc) ApplyScheduler(cfg *Config) { f(cfg) }

func (f optionFunc) applySession(sc *sessionConfig) { f(&sc.sched) }

type simOptionFunc func(*SimOptions)

func (f simOptionFunc) ApplySim(o *SimOptions) { f(o) }

func (f simOptionFunc) applySession(sc *sessionConfig) { f(&sc.sim) }

// WithV sets the cost-delay parameter V >= 0: larger V weighs the
// energy-fairness cost more heavily against queue drift, reducing cost at the
// expense of O(V) queue backlog (Theorem 1).
func WithV(v float64) SchedulerOption {
	return optionFunc(func(cfg *Config) { cfg.V = v })
}

// WithBeta sets the energy-fairness parameter beta >= 0: 0 ignores fairness
// entirely; large values prioritize fairness over energy cost.
func WithBeta(beta float64) SchedulerOption {
	return optionFunc(func(cfg *Config) { cfg.Beta = beta })
}

// WithFairness selects the fairness penalty entering the slot objective
// (paper footnote 5). NewQuadraticFairness and NewAlphaFairness both build
// suitable terms. Nil restores the default quadratic penalty.
func WithFairness(term core.FairnessTerm) SchedulerOption {
	return optionFunc(func(cfg *Config) { cfg.Fairness = term })
}

// WithTariff selects the energy tariff the scheduler optimizes against
// (paper section III-A2). Nil restores the baseline linear pricing.
func WithTariff(trf Tariff) SchedulerOption {
	return optionFunc(func(cfg *Config) { cfg.Tariff = trf })
}

// WithRouting selects the routing tie-break rule (core.SplitTies or
// core.FirstSiteWins).
func WithRouting(rule core.RoutingRule) SchedulerOption {
	return optionFunc(func(cfg *Config) { cfg.Routing = rule })
}

// WithFrankWolfe tunes the Frank-Wolfe solver used when beta > 0: the
// away-step method, each slot warm-started from the previous slot's iterate.
// Invalid values (negative MaxIters, NaN or negative Tol) are rejected at New
// with ErrBadConfig.
func WithFrankWolfe(opts solve.FWOptions) SchedulerOption {
	return optionFunc(func(cfg *Config) { cfg.FW = opts })
}

// WithSolver selects the slot-solver implementation: SolverAuto (the
// default: the active-pair compact representation, O(active) work per slot,
// whenever the cluster has no auxiliary resources and the tariff is linear
// or absent, and the dense layout otherwise — bit-identical decisions either
// way), SolverMonolithic (the dense N*J layout, pinned as a reference),
// SolverSparse (the compact representation, insisted on), or
// SolverDecomposed (per-data-center block decomposition, see
// WithDecomposedSolver). The sparse kinds require a cluster without
// auxiliary resources and a linear (or absent) tariff; New rejects other
// combinations with ErrBadConfig, where SolverAuto falls back to dense.
func WithSolver(kind core.SolverKind) SchedulerOption {
	return optionFunc(func(cfg *Config) { cfg.Solver = kind })
}

// WithDecomposedSolver selects the block-decomposed slot solver: the beta > 0
// slot decision splits into per-data-center subproblems coordinated by dual
// prices on the fairness coupling, solved concurrently when worker pooling is
// enabled (WithSolverWorkers) and finished by a monolithic polish, so the
// decisions agree with the default solver to solver tolerance at a fraction
// of the large-instance cost.
func WithDecomposedSolver() SchedulerOption {
	return WithSolver(core.SolverDecomposed)
}

// WithSolverWorkers bounds the concurrency of the decomposed solver's block
// stage: n <= 1 solves the per-site blocks serially, larger values pool them
// across n goroutines. Results are byte-identical at any worker count.
func WithSolverWorkers(n int) SchedulerOption {
	return optionFunc(func(cfg *Config) { cfg.SolverWorkers = n })
}

// WithSlots sets the simulation horizon t_end (required, > 0).
func WithSlots(n int) SimOption {
	return simOptionFunc(func(o *SimOptions) { o.Slots = n })
}

// WithAdmission installs an admission policy filtering arrivals before they
// enter the central queues (paper section V). Nil admits everything.
func WithAdmission(p AdmissionPolicy) RunOption {
	return simOptionFunc(func(o *SimOptions) { o.Admission = p })
}

// WithRecordedSeries toggles keeping per-slot prefix-average series for
// plotting; off, only scalar summaries are produced.
func WithRecordedSeries(on bool) RunOption {
	return simOptionFunc(func(o *SimOptions) { o.RecordSeries = on })
}

// WithActionValidation toggles re-checking every action against the model
// constraints, failing the run on violation.
func WithActionValidation(on bool) RunOption {
	return simOptionFunc(func(o *SimOptions) { o.ValidateActions = on })
}

// WithCheck toggles the invariant checker: every applied slot is re-verified
// against the paper's queue dynamics (12)-(13), action feasibility, and job
// conservation, and the run fails on the first violation. Recommended in
// tests; off by default because it roughly doubles per-slot bookkeeping.
func WithCheck(on bool) RunOption {
	return simOptionFunc(func(o *SimOptions) { o.Check = on })
}

// WithInputs supplies the session's system description and environment (the
// same Inputs bundle Simulate takes). Required by Open. A session normally
// runs without Inputs.Workload — arrivals come from Session.Submit — but a
// generator may be kept for synthetic background load, and its arrivals add
// to the submitted stream.
func WithInputs(in SimInputs) SessionOption {
	return sessionOptionFunc(func(sc *sessionConfig) {
		sc.inputs = in
		sc.haveInputs = true
	})
}

type sessionOptionFunc func(*sessionConfig)

func (f sessionOptionFunc) applySession(sc *sessionConfig) { f(sc) }

// observerOption attaches a SlotObserver on either side of the control loop,
// composing with (never replacing) observers installed by earlier options.
type observerOption struct {
	obs telemetry.SlotObserver
}

func (oo observerOption) ApplyScheduler(cfg *Config) {
	cfg.Observer = telemetry.Multi(cfg.Observer, oo.obs)
}

func (oo observerOption) ApplySim(o *SimOptions) {
	o.Observer = telemetry.Multi(o.Observer, oo.obs)
}

func (oo observerOption) applySession(sc *sessionConfig) {
	oo.ApplyScheduler(&sc.sched)
	oo.ApplySim(&sc.sim)
}

// WithObserver attaches a slot observer. Passed to New it receives one
// origin-"decide" event per scheduling decision; passed to Simulate it
// receives one origin-"sim" event per applied slot. Observers compose:
// several WithObserver/WithTelemetry options all receive events.
func WithObserver(obs SlotObserver) SchedulerSimOption {
	return observerOption{obs: obs}
}

// WithTelemetry bridges slot events into reg's grefar_* Prometheus metric
// families (see telemetry.RegistryObserver for the family list). New and
// Simulate label per-site series with the cluster's data-center names.
func WithTelemetry(reg *Registry) SchedulerSimOption {
	return observerOption{obs: telemetry.NewRegistryObserver(reg)}
}

// dataCenterNames lists the cluster's site names for per-site metric labels.
func dataCenterNames(c *Cluster) []string {
	names := make([]string, len(c.DataCenters))
	for i, dc := range c.DataCenters {
		names[i] = dc.Name
	}
	return names
}

// Telemetry types (see internal/telemetry for full documentation).
type (
	// Registry is a stdlib-only metrics registry with Prometheus text
	// exposition; it is an http.Handler serving /metrics.
	Registry = telemetry.Registry
	// SlotEvent is the structured record one control-loop iteration emits.
	SlotEvent = telemetry.SlotEvent
	// SlotObserver receives one SlotEvent per control-loop iteration.
	SlotObserver = telemetry.SlotObserver
	// SolveStats describes how a slot's optimization was solved.
	SolveStats = telemetry.SolveStats
)

// NewRegistry builds an empty telemetry registry for WithTelemetry.
func NewRegistry() *Registry {
	return telemetry.NewRegistry()
}

// NewJSONLObserver builds an observer writing one JSON object per SlotEvent
// to w — the offline-analysis twin of the Prometheus exposition. Check its
// Err method after the run.
func NewJSONLObserver(w io.Writer) *telemetry.JSONLObserver {
	return telemetry.NewJSONLObserver(w)
}

// MultiObserver bundles observers into one, dropping nils; it returns nil
// when nothing remains so callers keep the fast nil-observer path.
func MultiObserver(obs ...SlotObserver) SlotObserver {
	return telemetry.Multi(obs...)
}
