package grefar

import (
	"context"
	"fmt"
	"io"

	"grefar/internal/serve"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
)

// Serving-mode types (see internal/serve for full documentation).
type (
	// Session is a long-lived GreFar control loop: jobs arrive via Submit,
	// slots execute via Tick(ctx), the scheduler hot-reloads via
	// Reconfigure, and the durable state round-trips through
	// Checkpoint/Restore. Open builds one.
	Session = serve.Session
	// Job is one unit of a session's arrival stream: count jobs of one of
	// the cluster's job types (the account is implied by the type).
	Job = serve.Job
	// TickReport summarizes one served slot.
	TickReport = serve.TickReport
)

// Open starts a session at slot 0, configured by the same functional options
// New and Simulate take, plus WithInputs for the environment:
//
//	in, _ := grefar.ReferenceInputs(2012, 4096)
//	in.Workload = nil // arrivals come from Submit
//	s, _ := grefar.Open(grefar.WithInputs(in), grefar.WithV(7.5), grefar.WithBeta(100), grefar.WithCheck(true))
//	s.Submit([]grefar.Job{{Type: 0, Count: 3}})
//	s.Tick(ctx)
//
// The control loop is the exact loop Simulate runs — the batch path and the
// serving path share one engine — so a session driven by a workload
// generator reproduces Simulate's trajectory slot for slot.
func Open(opts ...SessionOption) (*Session, error) {
	var sc sessionConfig
	for _, o := range opts {
		if o != nil {
			o.applySession(&sc)
		}
	}
	if !sc.haveInputs {
		return nil, fmt.Errorf("%w: a session needs inputs (pass WithInputs)", ErrBadInputs)
	}
	if sc.inputs.Cluster != nil {
		names := dataCenterNames(sc.inputs.Cluster)
		if n, ok := sc.sched.Observer.(telemetry.DCNamer); ok {
			n.SetDCNames(names)
		}
		if n, ok := sc.sim.Observer.(telemetry.DCNamer); ok {
			n.SetDCNames(names)
		}
	}
	return serve.NewSession(serve.SessionConfig{
		Inputs:    sc.inputs,
		Scheduler: sc.sched,
		Sim:       sc.sim,
	})
}

// Restore opens a session with the given options and rewinds it onto a
// checkpoint previously written by Session.Checkpoint. The options must
// rebuild the same system (cluster, scheduler configuration) the checkpoint
// was taken under for the continuation to be byte-identical to the
// uninterrupted run. Corrupt checkpoints fail with ErrCorruptSnapshot;
// checkpoints from a different cluster shape with ErrSnapshotMismatch.
func Restore(r io.Reader, opts ...SessionOption) (*Session, error) {
	s, err := Open(opts...)
	if err != nil {
		return nil, err
	}
	if err := s.Restore(r); err != nil {
		return nil, err
	}
	return s, nil
}

// SimulateContext is Simulate with the context first, per the public
// surface's context-first convention: the run is canceled between slots as
// soon as ctx is done. The context parameter wins over a Context carried in
// by a legacy SimOptions literal in opts.
func SimulateContext(ctx context.Context, in SimInputs, s Scheduler, opts ...SimOption) (*SimResult, error) {
	opt := simOptions(in, opts)
	opt.Context = ctx
	return sim.Run(in, s, opt)
}
