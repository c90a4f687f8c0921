// Package sim is the time-slot simulator that drives a scheduler against the
// stochastic inputs: at the beginning of each slot it reveals the data center
// state x(t) (prices, availability), asks the scheduler for an action z(t),
// verifies feasibility, applies the queue dynamics, and accumulates the
// running-average metrics the paper's figures plot.
package sim

import (
	"context"
	"fmt"
	"sync"

	"grefar/internal/availability"
	"grefar/internal/fairness"
	"grefar/internal/metrics"
	"grefar/internal/model"
	"grefar/internal/price"
	"grefar/internal/sched"
	"grefar/internal/tariff"
	"grefar/internal/telemetry"
	"grefar/internal/workload"
)

// Inputs bundles the system description and its stochastic drivers.
type Inputs struct {
	// Cluster is the static system description.
	Cluster *model.Cluster
	// Prices yields phi_i(t), one source per data center.
	Prices []price.Source
	// Workload yields the arrival counts a_j(t).
	Workload workload.Generator
	// Availability yields n_{i,k}(t).
	Availability availability.Process
	// Fairness scores allocations for the reported fairness metric. When
	// nil, the paper's quadratic function with the account weights is used.
	Fairness fairness.Function
	// Tariff maps each site's energy draw to billed cost (nil means the
	// paper's baseline linear pricing). The simulator's AvgEnergy metric is
	// the incremental cost of the batch load under this tariff.
	Tariff tariff.Tariff
	// BaseLoad optionally yields the energy drawn by non-batch workloads
	// per site (one source per data center); it shifts the operating point
	// on convex tariffs. Nil means zero base load.
	BaseLoad []price.Source
}

// Options tune a run.
type Options struct {
	// Slots is the horizon length t_end (required, > 0).
	Slots int
	// RecordSeries keeps per-slot prefix-average series for plotting; when
	// false only scalar summaries are produced.
	RecordSeries bool
	// ValidateActions re-checks every action against the model constraints
	// and fails the run on violation. Cheap; on by default in experiments.
	ValidateActions bool
	// Admission optionally filters arrivals before they enter the central
	// queues (paper section V suggests admission control for overload).
	// Nil admits everything.
	Admission AdmissionPolicy
	// Observer, when non-nil, receives one telemetry.SlotEvent per slot
	// (origin "sim") after the action is applied: realized energy per site,
	// fairness, job flows, and post-slot backlogs. Nil costs nothing.
	Observer telemetry.SlotObserver
	// Context, when non-nil, cancels the run between slots: Run returns an
	// error wrapping the context's error as soon as cancellation is observed.
	// Nil means the run cannot be interrupted.
	Context context.Context
	// Check attaches the runtime invariant checker (internal/invariant) to
	// the run: every slot is verified against the paper's queue dynamics
	// (12)-(13), action feasibility under the revealed state, and
	// end-to-end job conservation, and Run fails with an error wrapping
	// invariant.ErrViolation on the first violation. Strictly stronger than
	// ValidateActions; costs one deep copy of the slot evidence per slot,
	// so leave it off in benchmarks.
	Check bool
}

// ApplySim replaces the whole option set with o, making an Options literal
// usable wherever a simulation option is accepted. This is the compatibility
// bridge for the pre-options call style
// (grefar.Simulate(in, s, grefar.SimOptions{...})): an Options used as an
// option resets every knob, so combine it with finer-grained options only
// before them, not after.
//
// Deprecated: pass functional options (WithSlots, WithCheck, WithAdmission,
// ...) instead of a positional SimOptions literal; the struct form remains
// supported but new knobs will only get option constructors.
func (o Options) ApplySim(dst *Options) { *dst = o }

// Result summarizes a run.
type Result struct {
	// SchedulerName identifies the policy that produced this result.
	SchedulerName string
	// Slots is the executed horizon.
	Slots int

	// AvgEnergy is the time-average energy cost (1/t) sum e(tau) —
	// Fig. 2a/3a/4a's final value.
	AvgEnergy float64
	// EnergySeries is the running average of e(t) per slot.
	EnergySeries []float64

	// AvgFairness is the time-average fairness score — Fig. 3b/4b.
	AvgFairness float64
	// FairnessSeries is the running average of f(t).
	FairnessSeries []float64

	// AvgLocalDelay[i] is the per-job average queueing delay in data center
	// i (slots) — Fig. 2b/2c/3c/4c.
	AvgLocalDelay []float64
	// LocalDelaySeries[i] is the running per-job average delay at site i.
	LocalDelaySeries [][]float64
	// AvgCentralDelay is the per-job average delay at the central scheduler.
	AvgCentralDelay float64

	// AvgWorkPerDC[i] is the average work per slot processed at site i —
	// the section VI-B1 work-share observation.
	AvgWorkPerDC []float64
	// WorkSeries[i] is the raw per-slot processed work at site i (kept only
	// with RecordSeries), used for the Fig. 5 snapshot.
	WorkSeries [][]float64
	// PriceSeries[i] is the raw per-slot price at site i (kept only with
	// RecordSeries).
	PriceSeries [][]float64

	// DelayHistograms[i] is the per-job delay distribution at site i; its
	// quantiles expose the tail the mean delay of the figures hides.
	DelayHistograms []*metrics.Histogram

	// MaxQueue is the largest single queue backlog observed — the O(V)
	// bound of Theorem 1a.
	MaxQueue float64
	// AvgQueue is the time-average total backlog.
	AvgQueue float64
	// FinalBacklog is the total backlog at the horizon.
	FinalBacklog float64
	// TotalArrived and TotalProcessed count jobs for conservation checks.
	TotalArrived, TotalProcessed float64
	// TotalDropped counts jobs rejected by the admission policy.
	TotalDropped float64
}

// Run simulates the scheduler over the horizon. Malformed inputs or options
// yield an error wrapping ErrBadInputs (a malformed cluster wraps
// model.ErrInvalidCluster instead). Run is a thin driver over Engine — the
// resumable slot-stepping core shared with the serving mode.
func Run(in Inputs, s sched.Scheduler, opt Options) (*Result, error) {
	// Batch-specific validation first, in the historical order (NewEngine
	// re-checks the shared subset; a generator-less engine is legal only in
	// the serving mode, and a horizon is meaningless there).
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
	if in.Workload == nil || in.Availability == nil {
		return nil, fmt.Errorf("%w: workload and availability are required", ErrBadInputs)
	}
	if opt.Slots <= 0 {
		return nil, fmt.Errorf("%w: horizon %d is not positive", ErrBadInputs, opt.Slots)
	}
	e, err := NewEngine(in, s, opt)
	if err != nil {
		return nil, err
	}
	for t := 0; t < opt.Slots; t++ {
		if opt.Context != nil {
			if err := opt.Context.Err(); err != nil {
				return nil, fmt.Errorf("slot %d: run canceled: %w", t, err)
			}
		}
		if err := e.Step(nil); err != nil {
			return nil, err
		}
	}
	return e.Result(), nil
}

// CollectStates materializes the per-slot states and arrivals of the inputs
// over a horizon, for consumers that need the whole future at once (the
// T-step lookahead benchmark).
func CollectStates(in Inputs, slots int) ([]*model.State, [][]int, error) {
	c := in.Cluster
	states := make([]*model.State, slots)
	arrivals := make([][]int, slots)
	for t := 0; t < slots; t++ {
		st := model.NewState(c)
		avail := in.Availability.At(t)
		for i := 0; i < c.N(); i++ {
			copy(st.Avail[i], avail[i])
			st.Price[i] = in.Prices[i].At(t)
		}
		if err := st.Validate(c); err != nil {
			return nil, nil, fmt.Errorf("slot %d: %w", t, err)
		}
		states[t] = st
		arrivals[t] = in.Workload.Arrivals(t)
	}
	return states, arrivals, nil
}

// NewReferenceInputs assembles the paper's evaluation setup: the Table I
// cluster, three price processes calibrated to the Table I averages, the
// four-organization Cosmos-like workload, and slackness-respecting
// availability. The seed makes the whole configuration deterministic.
//
// Prices and availability are materialized here. The workload is checked
// here but generated on its first Arrivals call, so a caller that replaces
// or drops it (the serving daemon takes arrivals from ingest) never pays for
// the trace.
func NewReferenceInputs(seed int64, slots int) (Inputs, error) {
	c := model.NewReferenceCluster()
	prices, err := price.NewReferenceSources(seed, slots)
	if err != nil {
		return Inputs{}, fmt.Errorf("prices: %w", err)
	}
	srcs := make([]price.Source, len(prices))
	for i, p := range prices {
		srcs[i] = p
	}
	if err := workload.Check(c, slots, workload.ReferenceProfiles()); err != nil {
		return Inputs{}, fmt.Errorf("workload: %w", err)
	}
	wl := &referenceWorkload{seed: seed + 1, c: c, n: slots}
	avail, err := availability.NewReferenceAvailability(seed+2, c, slots)
	if err != nil {
		return Inputs{}, fmt.Errorf("availability: %w", err)
	}
	return Inputs{Cluster: c, Prices: srcs, Workload: wl, Availability: avail}, nil
}

// referenceWorkload is the reference arrival trace, generated by
// workload.NewReferenceWorkload on the first Arrivals call. The once makes
// that first call safe from concurrent goroutines: a sweep shares one Inputs
// across its workers.
type referenceWorkload struct {
	seed int64
	c    *model.Cluster
	n    int

	once  sync.Once
	trace *workload.Trace
}

// Arrivals implements workload.Generator.
func (w *referenceWorkload) Arrivals(t int) []int {
	w.once.Do(func() {
		tr, err := workload.NewReferenceWorkload(w.seed, w.c, w.n)
		if err != nil {
			// NewReferenceInputs checked the length and the profiles.
			panic(fmt.Sprintf("sim: reference workload: %v", err))
		}
		w.trace = tr
	})
	return w.trace.Arrivals(t)
}
