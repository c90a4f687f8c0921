package serve

import (
	"context"
	"fmt"

	"grefar/internal/controller"
	"grefar/internal/invariant"
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
// RunSlotContext, and the loop's own account bills, scores and sums it with
// the code sim.Engine's does. The local queues are the agents'; the loop's
// shadow ledgers mirror them exactly, so Lengths and the checkpoint read the
// shadows.
type agentLoop struct {
	ct      *controller.Controller
	wl      workload.Generator
	ctx     context.Context
	checker *invariant.Checker
	buf     []int

	// failed is the first error the invariant checker returned on an applied
	// slot; as in sim.Engine, every later Step returns it until a restore.
	failed error
}

// newAgentLoop builds the distributed executor for cfg.Agents over a cluster
// the scheduler s was built for. The agents reveal prices and availability
// themselves, so of cfg.Inputs only the cluster and the optional workload
// are read. The loop bills linearly, scores the paper's quadratic fairness
// and admits every job, so a tariff, a base load, an admission policy and a
// fairness function are refused. cfg.Sim.Context, when set, bounds every
// agent call: cancelling it aborts a slot's reconnect backoff.
func newAgentLoop(cfg SessionConfig, s sched.Scheduler) (*agentLoop, error) {
	if cfg.Inputs.Tariff != nil || cfg.Inputs.BaseLoad != nil || cfg.Sim.Admission != nil || cfg.Inputs.Fairness != nil {
		return nil, fmt.Errorf("%w: agents bill linearly, score the paper's fairness and admit every job: no tariff, base load, fairness function or admission policy", sim.ErrBadInputs)
	}
	c := cfg.Inputs.Cluster
	a := &agentLoop{wl: cfg.Inputs.Workload, ctx: cfg.Sim.Context, buf: make([]int, c.J())}
	if a.ctx == nil {
		a.ctx = context.Background()
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

func (a *agentLoop) Slot() int                              { return a.ct.Slot() }
func (a *agentLoop) Lengths() queue.Lengths                 { return a.ct.Lengths() }
func (a *agentLoop) Backlog() float64                       { return a.ct.Backlog() }
func (a *agentLoop) Result() *sim.Result                    { return a.ct.Result() }
func (a *agentLoop) SetScheduler(s sched.Scheduler)         { a.ct.SetScheduler(s) }
func (a *agentLoop) ExportState() (*sim.EngineState, error) { return a.ct.ExportState() }

// Step runs one slot on the agents: the workload's arrivals (when there is a
// workload) plus extra enter the central queues. A slot the loop refuses
// leaves everything as it was.
func (a *agentLoop) Step(extra []int) error {
	if a.failed != nil {
		return a.failed
	}
	t := a.ct.Slot()
	arrivals := extra
	if a.wl != nil {
		gen := a.wl.Arrivals(t)
		for j := range a.buf {
			a.buf[j] = gen[j] + extra[j]
		}
		arrivals = a.buf
	}
	if _, _, _, err := a.ct.RunSlotContext(a.ctx, t, arrivals); err != nil {
		return err
	}
	if a.checker != nil {
		if err := a.checker.Err(); err != nil {
			a.failed = fmt.Errorf("slot %d: %s: %w", t, a.ct.Scheduler().Name(), err)
			return a.failed
		}
	}
	return nil
}

// RestoreState rewinds the loop onto st; the next Step first pushes every
// agent onto its restored local queues.
func (a *agentLoop) RestoreState(st *sim.EngineState) error {
	if err := a.ct.RestoreState(st); err != nil {
		return fmt.Errorf("%w: %v", sim.ErrBadInputs, err)
	}
	a.failed = nil
	return nil
}
