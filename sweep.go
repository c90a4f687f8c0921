package grefar

import (
	"context"

	"grefar/internal/runner"
)

// RunSpec is one simulation run of a Sweep: the inputs to drive, the
// scheduler to drive them with, and the per-run simulation options.
//
// Every spec must carry its own scheduler instance: a GreFar scheduler owns a
// reusable solver workspace, so one instance appearing in two specs of the
// same sweep is a data race. Build one scheduler per spec (they are cheap)
// rather than sharing.
type RunSpec struct {
	// Inputs bundles the cluster with its stochastic drivers for this run.
	Inputs SimInputs
	// Scheduler is the policy under test, exclusive to this spec.
	Scheduler Scheduler
	// Options configure the run like Simulate's variadic options. The run is
	// canceled through the sweep's per-run context, whatever they say.
	Options []SimOption
}

// SweepOption configures a Sweep call.
type SweepOption interface {
	applySweep(*sweepConfig)
}

type sweepConfig struct {
	workers int
}

type sweepOptionFunc func(*sweepConfig)

func (f sweepOptionFunc) applySweep(sc *sweepConfig) { f(sc) }

// WithWorkers bounds how many runs of a Sweep execute concurrently. Zero or
// negative selects one worker per CPU (GOMAXPROCS); one runs serially. The
// results are identical at any setting — each run is fully independent and
// the result slice is ordered by spec index, not completion order.
func WithWorkers(n int) SweepOption {
	return sweepOptionFunc(func(sc *sweepConfig) { sc.workers = n })
}

// Sweep executes the independent simulation runs described by specs across a
// bounded worker pool and returns their results ordered by spec index.
//
// Determinism: the simulator is deterministic in its inputs and every run is
// isolated (own inputs, own scheduler, own metrics), so Sweep's results are
// byte-identical to running the specs serially, at any worker count. Per-run
// observers attached via spec Options never interleave with each other — each
// observer sees only its own run's slots, in slot order — but observers
// shared between specs must be safe for concurrent use.
//
// The first run to fail cancels the context handed to the remaining runs
// (in-flight runs stop between slots, unstarted runs never start) and its
// error — the one with the lowest spec index among the failures — is
// returned. Canceling ctx aborts the whole sweep the same way.
func Sweep(ctx context.Context, specs []RunSpec, opts ...SweepOption) ([]*SimResult, error) {
	var sc sweepConfig
	for _, o := range opts {
		if o != nil {
			o.applySweep(&sc)
		}
	}
	return runner.Map(ctx, sc.workers, len(specs), func(ctx context.Context, i int) (*SimResult, error) {
		spec := specs[i]
		return SimulateContext(ctx, spec.Inputs, spec.Scheduler, spec.Options...)
	})
}
