package telemetry

// Event origins: which loop emitted a SlotEvent. The same registry can
// absorb events from several origins at once; counters are labeled by
// origin so a scheduler-side event never double-counts a simulator-side one.
const (
	// OriginDecide marks events emitted by core.GreFar.Decide: the slot
	// objective decomposition and solver health, observed before the action
	// is applied.
	OriginDecide = "decide"
	// OriginSim marks events emitted by sim.Run after applying the slot
	// action: realized energy, fairness, flows, and post-slot backlogs.
	OriginSim = "sim"
	// OriginController marks events emitted by the distributed controller's
	// run loop, the deployment analogue of OriginSim.
	OriginController = "controller"
	// OriginAgent marks events emitted by one data-center agent when it
	// executes an allocation; only that site's fields are populated.
	OriginAgent = "agent"
)

// Solver names used in SolveStats.Solver and as the "solver" label value of
// the grefar_solver_* metric families.
const (
	// SolverGreedy is the closed-form greedy exchange for linear slots.
	SolverGreedy = "greedy"
	// SolverLP is the simplex LP used when auxiliary resources are present.
	SolverLP = "simplex"
	// SolverFrankWolfe is the Frank-Wolfe convex solver used when beta > 0.
	SolverFrankWolfe = "frank-wolfe"
	// SolverProjGrad is the projected-gradient solver (lookahead baselines).
	SolverProjGrad = "projected-gradient"
)

// Warm-start outcomes used in SolveStats.Warm. One of these is recorded for
// every slot that runs the convex (beta > 0) solve; the field stays empty
// otherwise.
const (
	// WarmHit: the previous slot's iterate was feasible as-is and seeded the
	// solve unchanged.
	WarmHit = "hit"
	// WarmRepaired: the previous iterate violated the current slot's caps
	// (availability shrank) and was clamped/rescaled back into the feasible
	// set before seeding the solve.
	WarmRepaired = "repaired"
	// WarmFallback: no usable previous iterate (first slot, availability
	// collapse, or non-finite state) — the solve cold-started from zero.
	WarmFallback = "fallback"
)

// SolveStats describes how the per-slot optimization was solved. It is
// attached to OriginDecide events. Every field beyond the base four is
// omitted from the JSON encoding when it carries its zero value, so a linear
// slot's stats read as the base four alone.
type SolveStats struct {
	// Solver names the algorithm that produced the processing decision:
	// "greedy" (the closed-form exchange for linear slots), "simplex" (the
	// general LP under auxiliary resources), or "frank-wolfe" (the convex
	// program when beta > 0).
	Solver string `json:"solver"`
	// Iterations is the iteration count (1 for the one-shot solvers).
	Iterations int `json:"iterations"`
	// Converged reports whether the solver met its stopping tolerance.
	Converged bool `json:"converged"`
	// Residual is the convergence residual: the Frank-Wolfe duality gap, an
	// upper bound on the suboptimality of the slot decision. Zero for exact
	// solvers.
	Residual float64 `json:"residual"`

	// Warm records this slot's warm-start outcome (WarmHit, WarmRepaired, or
	// WarmFallback); empty on slots with no convex solve.
	Warm string `json:"warm,omitempty"`
	// WarmHits, WarmRepairs, and WarmFallbacks are the scheduler's cumulative
	// warm-start outcome counts, including this slot.
	WarmHits      int `json:"warm_hits,omitempty"`
	WarmRepairs   int `json:"warm_repairs,omitempty"`
	WarmFallbacks int `json:"warm_fallbacks,omitempty"`

	// Options carries the effective solver options, attached once per
	// scheduler (on its first event) and only when some option departs from
	// the defaults.
	Options *SolverOptions `json:"options,omitempty"`
}

// SolverOptions is the effective solver configuration a scheduler resolved
// at construction: explicit knobs with defaults already substituted.
type SolverOptions struct {
	// MaxIters is the effective iteration cap.
	MaxIters int `json:"max_iters"`
	// Tol is the effective duality-gap tolerance (0 = solver default).
	Tol float64 `json:"tol"`
}

// SlotEvent is the structured record one control-loop iteration emits.
// Fields outside the common block are populated per origin: OriginDecide
// carries the objective decomposition and solver stats, OriginSim and
// OriginController carry realized flows and costs, OriginAgent carries a
// single site's view.
type SlotEvent struct {
	// Slot is the time slot t.
	Slot int `json:"slot"`
	// Origin is one of the Origin* constants.
	Origin string `json:"origin"`
	// Scheduler names the policy in play, when known.
	Scheduler string `json:"scheduler,omitempty"`
	// DataCenter is the site index for OriginAgent events; -1 for
	// cluster-wide events.
	DataCenter int `json:"dc"`

	// CentralBacklog is sum_j Q_j(t).
	CentralBacklog float64 `json:"central_backlog"`
	// LocalBacklog[i] is sum_j q_{i,j}(t) per data center (nil when the
	// emitter sees only one site).
	LocalBacklog []float64 `json:"local_backlog,omitempty"`
	// TotalBacklog is the total backlog across every queue the emitter sees.
	TotalBacklog float64 `json:"total_backlog"`

	// Degraded lists the data centers masked out of this slot's decision
	// because their agents were failed, malformed, or dead (controller
	// events under the Degrade failure policy; nil on healthy slots).
	Degraded []int `json:"degraded,omitempty"`

	// Drift is the queue-drift component of the slot objective (paper
	// eq. 14): sum_j sum_{i in D_j} [q_{i,j}(r-h) - Q_j r].
	Drift float64 `json:"drift,omitempty"`
	// Penalty is the V*g(t) penalty component: V times the energy-fairness
	// cost of the chosen action.
	Penalty float64 `json:"penalty,omitempty"`
	// Objective is Drift + Penalty, the value of (14) at the chosen action.
	Objective float64 `json:"objective,omitempty"`

	// Energy is the billed energy cost of the slot (the emitter's view).
	Energy float64 `json:"energy"`
	// EnergyPerDC[i] is the per-site billed energy cost (nil for
	// single-site emitters).
	EnergyPerDC []float64 `json:"energy_per_dc,omitempty"`
	// Fairness is the slot's fairness score f(t), when the emitter computes
	// it.
	Fairness float64 `json:"fairness,omitempty"`

	// Arrived, Processed, and Dropped count jobs this slot.
	Arrived   float64 `json:"arrived,omitempty"`
	Processed float64 `json:"processed,omitempty"`
	Dropped   float64 `json:"dropped,omitempty"`

	// Solve carries solver health for OriginDecide events, nil otherwise.
	Solve *SolveStats `json:"solve,omitempty"`

	// Detail carries the full slot evidence (state, action, queue snapshots)
	// for verification consumers. Emitters populate it only when the wired
	// observer implements DetailObserver and asks for it; it never enters
	// the JSONL stream.
	Detail *SlotDetail `json:"-"`
}

// SlotObserver receives one SlotEvent per control-loop iteration.
// Implementations must be safe for concurrent use when shared across
// schedulers or agents, and should return quickly: observers run inline in
// the control loop.
type SlotObserver interface {
	ObserveSlot(ev SlotEvent)
}

// ObserverFunc adapts a function to the SlotObserver interface.
type ObserverFunc func(ev SlotEvent)

// ObserveSlot implements SlotObserver.
func (f ObserverFunc) ObserveSlot(ev SlotEvent) { f(ev) }

// MultiObserver fans one event out to several observers in order.
type MultiObserver []SlotObserver

// ObserveSlot implements SlotObserver.
func (m MultiObserver) ObserveSlot(ev SlotEvent) {
	for _, o := range m {
		if o != nil {
			o.ObserveSlot(ev)
		}
	}
}

// SetDCNames implements DCNamer by forwarding to every member that names
// data centers.
func (m MultiObserver) SetDCNames(names []string) {
	for _, o := range m {
		if n, ok := o.(DCNamer); ok {
			n.SetDCNames(names)
		}
	}
}

// Multi bundles observers into one, dropping nils. It returns nil when
// nothing remains, so callers can keep the fast nil-observer path.
func Multi(obs ...SlotObserver) SlotObserver {
	out := make(MultiObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}
