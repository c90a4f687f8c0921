package sim

import (
	"fmt"

	"grefar/internal/invariant"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/telemetry"
)

// Engine is the resumable slot-stepping core of the simulator: the exact
// control loop Run executes, exposed one slot at a time so long-running
// consumers (the serving mode's Session) can drive it from a wall clock or an
// HTTP tick, inject externally ingested arrivals, and checkpoint/restore its
// durable state across restarts.
//
// Run is a thin wrapper — NewEngine plus Options.Slots calls to Step — so the
// batch and serving paths share one implementation and the golden traces pin
// both at once.
//
// An Engine is single-owner like the scheduler workspace it drives: Step and
// the accessors must not be called concurrently.
type Engine struct {
	in   Inputs
	s    sched.Scheduler
	opt  Options
	c    *model.Cluster
	acct *Account

	qs *queue.Set
	st *model.State

	obs        telemetry.SlotObserver
	checker    *invariant.Checker
	wantDetail bool

	// failed is the first error a Step returned after its slot had already
	// moved the queues; every later Step returns it instead of re-running a
	// slot on queues that moved. RestoreState clears it.
	failed error

	admissionLens []float64
	zeroArrivals  []int
	arrivalsBuf   []int
	t             int
}

// NewEngine validates the inputs and builds a ready-to-step engine at slot 0.
// Unlike Run, the workload generator is optional: an engine without one sees
// only the arrivals injected through Step's extra parameter (the serving
// mode's ingest stream). Options.Slots is ignored — the horizon is however
// many Step calls the caller makes.
func NewEngine(in Inputs, s sched.Scheduler, opt Options) (*Engine, error) {
	c := in.Cluster
	if c == nil {
		return nil, fmt.Errorf("%w: nil cluster", ErrBadInputs)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(in.Prices) != c.N() {
		return nil, fmt.Errorf("%w: got %d price sources, cluster has %d data centers", ErrBadInputs, len(in.Prices), c.N())
	}
	if in.Availability == nil {
		return nil, fmt.Errorf("%w: availability is required", ErrBadInputs)
	}
	acct, err := NewAccount(c, in.Fairness, in.Tariff, opt.RecordSeries)
	if err != nil {
		return nil, err
	}

	e := &Engine{in: in, s: s, opt: opt, c: c, acct: acct}
	e.qs = queue.NewSet(c)
	e.st = model.NewState(c)

	// Compose the run observer with the invariant checker when checking is
	// on; collect slot details only when something downstream consumes them.
	e.obs = opt.Observer
	if opt.Check {
		e.checker = invariant.NewChecker(c, invariant.CheckerOptions{})
		e.obs = telemetry.Multi(e.obs, e.checker)
	}
	e.wantDetail = telemetry.WantsDetail(e.obs)

	if in.BaseLoad != nil {
		if len(in.BaseLoad) != c.N() {
			return nil, fmt.Errorf("%w: got %d base-load sources, cluster has %d data centers", ErrBadInputs, len(in.BaseLoad), c.N())
		}
		e.st.BaseEnergy = make([]float64, c.N())
	}
	if opt.Admission != nil {
		e.admissionLens = make([]float64, c.J())
	}
	e.zeroArrivals = make([]int, c.J())
	e.arrivalsBuf = make([]int, c.J())
	return e, nil
}

// Slot returns the index of the next slot Step will execute (equivalently,
// the number of slots executed so far).
func (e *Engine) Slot() int { return e.t }

// Lengths returns a snapshot of the current queue backlogs Theta(t). The
// snapshot is the caller's: it is taken fresh and never aliases the view the
// engine's scheduler decides on.
func (e *Engine) Lengths() queue.Lengths { return e.qs.Lengths() }

// Backlog returns the total queue backlog, bit-identical to
// Lengths().Sum() without taking a snapshot.
func (e *Engine) Backlog() float64 { return e.qs.Backlog() }

// Scheduler returns the policy currently driving the engine.
func (e *Engine) Scheduler() sched.Scheduler { return e.s }

// SetScheduler swaps the driving policy at a slot boundary — the serving
// mode's hot reload of V/beta/tariff. The caller owns the lifecycle of the
// old scheduler; queue state is untouched.
func (e *Engine) SetScheduler(s sched.Scheduler) { e.s = s }

// CheckerErr surfaces the invariant checker's verdict (nil when checking is
// off or every slot passed).
func (e *Engine) CheckerErr() error {
	if e.checker == nil {
		return nil
	}
	return e.checker.Err()
}

// Step executes one slot: reveal x(t), decide, apply, admit this slot's
// arrivals, and accumulate metrics. The slot's arrivals are the workload
// generator's output (when a generator is configured) plus extra, the
// externally ingested counts per job type (nil means none). Errors carry the
// slot context exactly as Run reports them.
//
// A Step rejected before its action is applied — a malformed extra, a bad
// state, a scheduler error or an infeasible action — leaves the queues, the
// counters and the slot index as they were, so the corrected call runs the
// slot once. A failure only the applied slot can reveal (the admission
// policy's counts, the workload's arrivals, the invariant checker's verdict)
// cannot be undone: the engine then refuses every later Step with that first
// error until RestoreState rewinds it.
func (e *Engine) Step(extra []int) error {
	if e.failed != nil {
		return e.failed
	}
	c, st, t := e.c, e.st, e.t
	in, opt := &e.in, &e.opt

	if extra != nil {
		if len(extra) != c.J() {
			return fmt.Errorf("slot %d: got %d extra arrival counts, cluster has %d job types", t, len(extra), c.J())
		}
		for j, a := range extra {
			if a < 0 {
				return fmt.Errorf("slot %d: job type %d: negative extra arrivals %d", t, j, a)
			}
		}
	}

	// Reveal x(t).
	avail := in.Availability.At(t)
	for i := 0; i < c.N(); i++ {
		copy(st.Avail[i], avail[i])
		st.Price[i] = in.Prices[i].At(t)
		if in.BaseLoad != nil {
			st.BaseEnergy[i] = in.BaseLoad[i].At(t)
		}
	}
	if err := st.Validate(c); err != nil {
		return fmt.Errorf("slot %d: bad state: %w", t, err)
	}

	// Decide and apply. The scheduler decides on the queue set's own view of
	// Theta(t), which Apply rewrites; a detail observer gets a copy taken
	// before it does.
	view := e.qs.View()
	act, err := e.s.Decide(t, st, view)
	if err != nil {
		return fmt.Errorf("slot %d: %s: %w", t, e.s.Name(), err)
	}
	if opt.ValidateActions {
		if err := act.Validate(c, st); err != nil {
			return fmt.Errorf("slot %d: %s produced an infeasible action: %w", t, e.s.Name(), err)
		}
	}
	var pre queue.Lengths
	if e.wantDetail {
		pre = view.Clone()
	}
	flows, err := e.qs.Apply(t, act)
	if err != nil {
		return fmt.Errorf("slot %d: applying action: %w", t, err)
	}
	arrivals := e.zeroArrivals
	if in.Workload != nil {
		arrivals = in.Workload.Arrivals(t)
	}
	if extra != nil {
		buf := e.arrivalsBuf
		for j := range buf {
			buf[j] = arrivals[j] + extra[j]
		}
		arrivals = buf
	}
	admitted := arrivals
	if opt.Admission != nil {
		lens := e.admissionLens
		for j := range lens {
			lens[j] = e.qs.CentralLen(j)
		}
		admitted = opt.Admission.Admit(t, arrivals, lens)
		if len(admitted) != c.J() {
			return e.fail(fmt.Errorf("slot %d: admission policy returned %d counts, want %d", t, len(admitted), c.J()))
		}
		for j := range admitted {
			if admitted[j] < 0 || admitted[j] > arrivals[j] {
				return e.fail(fmt.Errorf("slot %d: admission policy admitted %d of %d for job type %d",
					t, admitted[j], arrivals[j], j))
			}
		}
	}
	if err := e.qs.Arrive(t, admitted); err != nil {
		return e.fail(fmt.Errorf("slot %d: arrivals: %w", t, err))
	}

	e.acct.Add(Slot{T: t, State: st, Action: act, Flows: flows, Pre: pre, Post: view,
		Arrivals: arrivals, Admitted: admitted})
	if e.obs != nil {
		e.obs.ObserveSlot(e.acct.Event(telemetry.OriginSim, e.s.Name(), e.wantDetail))
	}
	if e.checker != nil {
		if err := e.checker.Err(); err != nil {
			return e.fail(fmt.Errorf("slot %d: %s: %w", t, e.s.Name(), err))
		}
	}
	e.t++
	return nil
}

// fail records the first error of a slot that had already moved the queues
// and returns it; see Step.
func (e *Engine) fail(err error) error {
	e.failed = err
	return err
}

// Result finalizes the aggregate metrics over the slots executed so far. The
// returned Result is owned by the engine and remains valid (but stale) after
// further Step calls; Run calls it exactly once at the horizon.
func (e *Engine) Result() *Result {
	return e.acct.Result(e.s.Name(), e.t, e.qs.Backlog())
}

// EngineState is the durable state of an engine: what must survive a restart
// for the queue trajectory to continue byte-identically. Aggregate metrics
// (running averages, delay histograms, recorded series) are derived
// observations of the trajectory, not part of it — a restored engine starts
// them fresh, and its Result covers the slots since restore. All fields are
// exported so the state serializes with encoding/gob.
type EngineState struct {
	// Slot is the next slot index to execute.
	Slot int
	// Queues is the full queue.Set snapshot: every FIFO cohort with its
	// arrival slot, so restored delay measurements stay exact.
	Queues []byte
	// TotalArrived, TotalProcessed, and TotalDropped are the lifetime job
	// counters, kept durable so conservation accounting spans restarts.
	TotalArrived, TotalProcessed, TotalDropped float64
}

// ExportState captures the engine's durable state. Safe to call between any
// two Steps; the snapshot owns its memory.
func (e *Engine) ExportState() (*EngineState, error) {
	qs, err := e.qs.Snapshot()
	if err != nil {
		return nil, err
	}
	return e.acct.Export(e.t, qs), nil
}

// RestoreState rewinds a freshly built engine onto a previously exported
// trajectory point: queue contents (with per-cohort arrival slots), the slot
// counter, and the lifetime job counters. The engine must have been built
// for the same cluster shape. Aggregate metrics restart from zero — see
// EngineState for what is durable versus derived. A rejected state leaves the
// engine as it was.
func (e *Engine) RestoreState(st *EngineState) error {
	if st == nil {
		return nil
	}
	if st.Slot < 0 {
		return fmt.Errorf("%w: negative slot counter %d", ErrBadInputs, st.Slot)
	}
	if err := e.qs.Restore(st.Queues); err != nil {
		return fmt.Errorf("%w: %v", ErrBadInputs, err)
	}
	e.failed = nil
	e.t = st.Slot
	e.acct.Restore(st)
	return nil
}
