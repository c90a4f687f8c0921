package serve

import (
	"context"
	"fmt"

	"grefar/internal/controller"
	"grefar/internal/fairness"
	"grefar/internal/invariant"
	"grefar/internal/metrics"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/workload"
)

// executor runs a session's slots. The in-process sim.Engine is one;
// agentLoop, the distributed control loop over real site agents, is the
// other. Both keep
// their durable state as a sim.EngineState, whose queue snapshot holds the
// central and the local ledgers, so a checkpoint of either restores into
// either.
type executor interface {
	Slot() int
	Step(extra []int) error
	Lengths() queue.Lengths
	Backlog() float64
	Result() *sim.Result
	SetScheduler(s sched.Scheduler)
	ExportState() (*sim.EngineState, error)
	RestoreState(st *sim.EngineState) error
}

var (
	_ executor = (*sim.Engine)(nil)
	_ executor = (*agentLoop)(nil)
)

// agentLoop is the executor over controller.Controller: each Step is one
// RunSlotContext, whose acks it aggregates into the metrics sim.Engine
// reports. The local queues are the agents'; the loop's shadow ledgers mirror
// them exactly, so Lengths and the checkpoint read the shadows.
type agentLoop struct {
	ct      *controller.Controller
	c       *model.Cluster
	wl      workload.Generator
	ctx     context.Context
	name    string
	fair    fairness.Function
	checker *invariant.Checker

	// failed is the first error the invariant checker returned on an applied
	// slot; as in sim.Engine, every later Step returns it until a restore.
	failed error

	energy, fairScore           *metrics.Running
	localDelay                  []*metrics.Ratio
	workAvg                     []*metrics.Running
	arrived, processed, dropped float64
	alloc                       []float64
	buf                         []int
}

// newAgentLoop builds the distributed executor for cfg.Agents over a cluster
// the scheduler s was built for. The agents reveal prices and availability
// themselves, so of cfg.Inputs only the cluster, the optional workload and
// the fairness function are read. cfg.Sim.Context, when set, bounds every
// agent call: cancelling it aborts a slot's reconnect backoff.
func newAgentLoop(cfg SessionConfig, s sched.Scheduler) (*agentLoop, error) {
	if cfg.Inputs.Tariff != nil || cfg.Inputs.BaseLoad != nil || cfg.Sim.Admission != nil {
		return nil, fmt.Errorf("%w: agents bill linearly and admit every job: no tariff, base load or admission policy", sim.ErrBadInputs)
	}
	c := cfg.Inputs.Cluster
	fair := cfg.Inputs.Fairness
	if fair == nil {
		weights := make([]float64, c.M())
		for m, a := range c.Accounts {
			weights[m] = a.Weight
		}
		var err error
		if fair, err = fairness.NewQuadratic(weights); err != nil {
			return nil, err
		}
	}
	a := &agentLoop{
		c:         c,
		wl:        cfg.Inputs.Workload,
		ctx:       cfg.Sim.Context,
		name:      s.Name(),
		fair:      fair,
		energy:    metrics.NewRunning(false),
		fairScore: metrics.NewRunning(false),
		alloc:     make([]float64, c.M()),
		buf:       make([]int, c.J()),
	}
	if a.ctx == nil {
		a.ctx = context.Background()
	}
	a.localDelay = make([]*metrics.Ratio, c.N())
	a.workAvg = make([]*metrics.Running, c.N())
	for i := range a.localDelay {
		a.localDelay[i] = metrics.NewRatio(false)
		a.workAvg[i] = metrics.NewRunning(false)
	}
	obs := cfg.Sim.Observer
	if cfg.Sim.Check {
		a.checker = invariant.NewChecker(c, invariant.CheckerOptions{})
		obs = telemetry.Multi(obs, a.checker)
	}
	opts := append([]controller.Option{controller.WithObserver(obs)}, cfg.Controller...)
	var err error
	if a.ct, err = controller.New(c, s, cfg.Agents, opts...); err != nil {
		return nil, err
	}
	return a, nil
}

func (a *agentLoop) Slot() int              { return a.ct.Slot() }
func (a *agentLoop) Lengths() queue.Lengths { return a.ct.Lengths() }
func (a *agentLoop) Backlog() float64       { return a.ct.Lengths().Sum() }

func (a *agentLoop) SetScheduler(s sched.Scheduler) {
	a.ct.SetScheduler(s)
	a.name = s.Name()
}

// Step runs one slot on the agents: the workload's arrivals (when there is a
// workload) plus extra enter the central queues. A slot the loop refuses
// leaves everything as it was.
func (a *agentLoop) Step(extra []int) error {
	if a.failed != nil {
		return a.failed
	}
	c, t := a.c, a.ct.Slot()
	arrivals := extra
	if a.wl != nil {
		gen := a.wl.Arrivals(t)
		for j := range a.buf {
			a.buf[j] = gen[j] + extra[j]
		}
		arrivals = a.buf
	}
	_, st, acks, err := a.ct.RunSlotContext(a.ctx, t, arrivals)
	if err != nil {
		return err
	}
	var e float64
	clear(a.alloc)
	for i, ack := range acks {
		e += ack.Energy
		var dSum, dCount float64
		for j := range ack.Processed {
			dSum += ack.DelaySum[j]
			dCount += ack.Processed[j]
			a.alloc[c.JobTypes[j].Account] += ack.Processed[j] * c.JobTypes[j].Demand
			a.processed += ack.Processed[j]
		}
		a.localDelay[i].Add(dSum, dCount)
		a.workAvg[i].Add(ack.Work)
	}
	a.energy.Add(e)
	a.fairScore.Add(a.fair.Score(a.alloc, st.TotalResource(c)))
	for _, n := range arrivals {
		a.arrived += float64(n)
	}
	if a.checker != nil {
		if err := a.checker.Err(); err != nil {
			a.failed = fmt.Errorf("slot %d: %s: %w", t, a.name, err)
			return a.failed
		}
	}
	return nil
}

// Result aggregates the slots run since the executor was built or restored,
// like sim.Engine.Result: energy, fairness, per-site delay and work, and the
// lifetime job counts (drops are an engine checkpoint's, carried over: the
// agents admit every job).
func (a *agentLoop) Result() *sim.Result {
	res := &sim.Result{
		SchedulerName:  a.name,
		Slots:          a.ct.Slot(),
		AvgEnergy:      a.energy.Mean(),
		AvgFairness:    a.fairScore.Mean(),
		AvgLocalDelay:  make([]float64, a.c.N()),
		AvgWorkPerDC:   make([]float64, a.c.N()),
		FinalBacklog:   a.Backlog(),
		TotalArrived:   a.arrived,
		TotalProcessed: a.processed,
		TotalDropped:   a.dropped,
	}
	for i := range res.AvgLocalDelay {
		res.AvgLocalDelay[i] = a.localDelay[i].Value()
		res.AvgWorkPerDC[i] = a.workAvg[i].Mean()
	}
	return res
}

func (a *agentLoop) ExportState() (*sim.EngineState, error) {
	st, err := a.ct.ExportState()
	if err != nil {
		return nil, err
	}
	return &sim.EngineState{
		Slot:           st.Slot,
		Queues:         st.Queues,
		TotalArrived:   a.arrived,
		TotalProcessed: a.processed,
		TotalDropped:   a.dropped,
	}, nil
}

// RestoreState rewinds the loop onto st; the next Step first pushes every
// agent onto its restored local queues.
func (a *agentLoop) RestoreState(st *sim.EngineState) error {
	if err := a.ct.RestoreState(&controller.State{Slot: st.Slot, Queues: st.Queues}); err != nil {
		return fmt.Errorf("%w: %v", sim.ErrBadInputs, err)
	}
	a.failed = nil
	a.arrived, a.processed, a.dropped = st.TotalArrived, st.TotalProcessed, st.TotalDropped
	return nil
}
