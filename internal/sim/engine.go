package sim

import (
	"fmt"

	"grefar/internal/fairness"
	"grefar/internal/invariant"
	"grefar/internal/metrics"
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
	fair fairness.Function

	qs *queue.Set
	st *model.State

	obs        telemetry.SlotObserver
	checker    *invariant.Checker
	wantDetail bool

	energy, fairScore  *metrics.Running
	localDelay         []*metrics.Ratio
	workAvg            []*metrics.Running
	centralDelay       *metrics.Ratio
	hists              []*metrics.Histogram
	maxQ               metrics.Max
	avgQ               metrics.Running
	arrived, processed float64

	// failed is the first error a Step returned after its slot had already
	// moved the queues; every later Step returns it instead of re-running a
	// slot on queues that moved. RestoreState clears it.
	failed error

	res           *Result
	accountWork   []float64 // r_m(t), rewritten every slot
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
	fair := in.Fairness
	if fair == nil {
		weights := make([]float64, c.M())
		for m, a := range c.Accounts {
			weights[m] = a.Weight
		}
		var err error
		fair, err = fairness.NewQuadratic(weights)
		if err != nil {
			return nil, err
		}
	}

	e := &Engine{in: in, s: s, opt: opt, c: c, fair: fair}
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

	e.energy = metrics.NewRunning(opt.RecordSeries)
	e.fairScore = metrics.NewRunning(opt.RecordSeries)
	e.localDelay = make([]*metrics.Ratio, c.N())
	e.workAvg = make([]*metrics.Running, c.N())
	for i := range e.localDelay {
		e.localDelay[i] = metrics.NewRatio(opt.RecordSeries)
		e.workAvg[i] = metrics.NewRunning(false)
	}
	e.centralDelay = metrics.NewRatio(false)
	e.hists = make([]*metrics.Histogram, c.N())
	for i := range e.hists {
		var err error
		e.hists[i], err = metrics.NewHistogram(metrics.DelayBounds())
		if err != nil {
			return nil, err
		}
	}

	e.res = &Result{SchedulerName: s.Name()}
	if opt.RecordSeries {
		e.res.WorkSeries = make([][]float64, c.N())
		e.res.PriceSeries = make([][]float64, c.N())
	}

	if in.BaseLoad != nil {
		if len(in.BaseLoad) != c.N() {
			return nil, fmt.Errorf("%w: got %d base-load sources, cluster has %d data centers", ErrBadInputs, len(in.BaseLoad), c.N())
		}
		e.st.BaseEnergy = make([]float64, c.N())
	}
	if opt.Admission != nil {
		e.admissionLens = make([]float64, c.J())
	}
	e.accountWork = make([]float64, c.M())
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
func (e *Engine) SetScheduler(s sched.Scheduler) {
	e.s = s
	e.res.SchedulerName = s.Name()
}

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
	res := e.res

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
	var slotDropped float64
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
			slotDropped += float64(arrivals[j] - admitted[j])
		}
	}
	if err := e.qs.Arrive(t, admitted); err != nil {
		return e.fail(fmt.Errorf("slot %d: arrivals: %w", t, err))
	}
	res.TotalDropped += slotDropped

	// Metrics. Work, account work and the delay sums walk only the pairs the
	// action asked to process, site by site in row-major order: every term
	// they skip is an exact +0.0, so each sum is bit-identical to the dense
	// one (WorkAt, AccountWork).
	slotEnergy := act.BilledCost(c, st, in.Tariff)
	e.energy.Add(slotEnergy)
	clear(e.accountWork)
	var slotProcessed float64
	cells, k, nJ := flows.Cells, 0, c.J()
	for i := 0; i < c.N(); i++ {
		var work, dSum, dCount float64
		for ; k < len(cells) && cells[k] < (i+1)*nJ; k++ {
			j := cells[k] - i*nJ
			jt := &c.JobTypes[j]
			w := act.Process[i][j] * jt.Demand
			work += w
			e.accountWork[jt.Account] += w
			// A pair that processed nothing has no delay to report either.
			if p := flows.Processed[i][j]; p != 0 {
				dSum += flows.LocalDelaySum[i][j]
				dCount += p
				e.processed += p
				slotProcessed += p
			}
		}
		e.localDelay[i].Add(dSum, dCount)
		for _, sample := range flows.LocalDelaySamples[i] {
			e.hists[i].Add(sample.Delay, sample.Jobs)
		}
		e.workAvg[i].Add(work)
		if opt.RecordSeries {
			res.WorkSeries[i] = append(res.WorkSeries[i], work)
			res.PriceSeries[i] = append(res.PriceSeries[i], st.Price[i])
		}
	}
	slotFairness := e.fair.Score(e.accountWork, st.TotalResource(c))
	e.fairScore.Add(slotFairness)
	var slotArrived float64
	for j := 0; j < c.J(); j++ {
		e.centralDelay.Add(flows.CentralDelaySum[j], flows.CentralRouted[j])
		e.arrived += float64(arrivals[j])
		slotArrived += float64(arrivals[j])
	}
	// One pass over the view, now the post-slot backlogs, for both queue
	// statistics, summing in Lengths.Sum's order; backlogs are never
	// negative, so the slot's largest is all maxQ needs to see.
	var qSum, qMax float64
	for _, v := range view.Central {
		qSum += v
		if v > qMax {
			qMax = v
		}
	}
	for i := range view.Local {
		for _, v := range view.Local[i] {
			qSum += v
			if v > qMax {
				qMax = v
			}
		}
	}
	e.maxQ.Add(qMax)
	e.avgQ.Add(qSum)

	if e.obs != nil {
		ev := slotEvent(c, e.s.Name(), t, view, act, st, in.Tariff,
			slotEnergy, slotFairness, slotArrived, slotProcessed, slotDropped)
		if e.wantDetail {
			// The detail owns everything it carries: the scheduler rewrites
			// its action, and the queue set its view and flow matrices, on
			// the next slot, so they are copied here.
			ev.Detail = &telemetry.SlotDetail{
				State:     st.Clone(),
				Action:    act.Clone(),
				Pre:       pre,
				Post:      view.Clone(),
				Arrivals:  append([]int(nil), admitted...),
				Routed:    cloneRows(flows.Routed),
				Processed: cloneRows(flows.Processed),
			}
		}
		e.obs.ObserveSlot(ev)
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

// cloneRows deep-copies a matrix onto one backing array, each row capped at
// its own length.
func cloneRows(m [][]float64) [][]float64 {
	total := 0
	for _, row := range m {
		total += len(row)
	}
	flat := make([]float64, 0, total)
	out := make([][]float64, len(m))
	for i, row := range m {
		flat = append(flat, row...)
		out[i] = flat[len(flat)-len(row) : len(flat) : len(flat)]
	}
	return out
}

// Result finalizes the aggregate metrics over the slots executed so far. The
// returned Result is owned by the engine and remains valid (but stale) after
// further Step calls; Run calls it exactly once at the horizon.
func (e *Engine) Result() *Result {
	c, res := e.c, e.res
	res.Slots = e.t
	res.AvgEnergy = e.energy.Mean()
	res.EnergySeries = e.energy.Series()
	res.AvgFairness = e.fairScore.Mean()
	res.FairnessSeries = e.fairScore.Series()
	res.AvgLocalDelay = make([]float64, c.N())
	res.AvgWorkPerDC = make([]float64, c.N())
	if e.opt.RecordSeries {
		res.LocalDelaySeries = make([][]float64, c.N())
	}
	for i := 0; i < c.N(); i++ {
		res.AvgLocalDelay[i] = e.localDelay[i].Value()
		res.AvgWorkPerDC[i] = e.workAvg[i].Mean()
		if e.opt.RecordSeries {
			res.LocalDelaySeries[i] = e.localDelay[i].Series()
		}
	}
	res.AvgCentralDelay = e.centralDelay.Value()
	res.DelayHistograms = e.hists
	res.MaxQueue = e.maxQ.Value()
	res.AvgQueue = e.avgQ.Mean()
	res.FinalBacklog = e.qs.Backlog()
	res.TotalArrived = e.arrived
	res.TotalProcessed = e.processed
	return res
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
	return &EngineState{
		Slot:           e.t,
		Queues:         qs,
		TotalArrived:   e.arrived,
		TotalProcessed: e.processed,
		TotalDropped:   e.res.TotalDropped,
	}, nil
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
	e.arrived = st.TotalArrived
	e.processed = st.TotalProcessed
	e.res.TotalDropped = st.TotalDropped
	return nil
}
