package sim

import (
	"grefar/internal/core"
	"grefar/internal/fairness"
	"grefar/internal/metrics"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/tariff"
	"grefar/internal/telemetry"
)

// Slot is one applied slot as an Account reads it. Everything it points at
// is the caller's, and is read only by the Add that takes it and the Event
// after that Add.
type Slot struct {
	T      int
	State  *model.State
	Action *model.Action
	// Flows are the slot's Set.Apply flows.
	Flows *queue.FlowStats
	// Pre is the backlogs the action was decided on, taken before Apply;
	// only a detail reads it. Post is the backlogs after the slot's
	// arrivals.
	Pre, Post queue.Lengths
	// Arrivals are a(t); Admitted are the counts that entered the central
	// queues (Arrivals itself when nothing is filtered).
	Arrivals, Admitted []int
}

// Account is a run's slot account: the bill, the fairness score and the
// sums of every applied slot, and the running Result they add up to. The
// simulator's Engine and the distributed control loop each keep one and
// hand it every slot once the queues have moved, so the two bill, score and
// sum a slot with the same code, bit for bit.
//
// Energy is billed centrally from the action: site i costs
// Action.BilledCostAt under the tariff, and the slot costs their sum in
// index order. Fairness is the paper's eq. (3) score of the allocation
// r_m(t) = sum h*d the action asks for, not of the processed counts, which
// differ from h by the queue's pop rounding and where h exceeds the queue.
//
// Work, account work and the delay sums walk only the pairs the slot's
// flows list as moving, and the backlog sums only the eligible pairs, site
// by site in row-major order: every term they skip is an exact +0.0, so
// each sum is bit-identical to the dense one. Add allocates nothing unless
// series are recorded.
type Account struct {
	c      *model.Cluster
	pairs  model.SitePairs
	fair   fairness.Function
	trf    tariff.Tariff
	series bool

	energy, fairScore           *metrics.Running
	localDelay                  []*metrics.Ratio
	workAvg                     []*metrics.Running
	centralDelay                *metrics.Ratio
	hists                       []*metrics.Histogram
	maxQ                        metrics.Max
	avgQ                        metrics.Running
	arrived, processed, dropped float64
	res                         Result

	// The last slot, rewritten by every Add: what Add read, r_m(t), each
	// site's bill, and the event's slot figures.
	last               Slot
	accountWork, perDC []float64
	ev                 telemetry.SlotEvent
}

// NewAccount builds an empty account for c. A nil fair scores slots with the
// paper's quadratic over the account weights; a nil trf bills linearly.
// With series on, Result carries the per-slot series.
func NewAccount(c *model.Cluster, fair fairness.Function, trf tariff.Tariff, series bool) (*Account, error) {
	if fair == nil {
		var err error
		if fair, err = fairness.NewQuadratic(core.AccountWeights(c)); err != nil {
			return nil, err
		}
	}
	a := &Account{
		c:            c,
		pairs:        c.SitePairs(),
		fair:         fair,
		trf:          trf,
		series:       series,
		energy:       metrics.NewRunning(series),
		fairScore:    metrics.NewRunning(series),
		localDelay:   make([]*metrics.Ratio, c.N()),
		workAvg:      make([]*metrics.Running, c.N()),
		centralDelay: metrics.NewRatio(false),
		hists:        make([]*metrics.Histogram, c.N()),
		accountWork:  make([]float64, c.M()),
		perDC:        make([]float64, c.N()),
	}
	for i := range a.localDelay {
		a.localDelay[i] = metrics.NewRatio(series)
		a.workAvg[i] = metrics.NewRunning(false)
		var err error
		if a.hists[i], err = metrics.NewHistogram(metrics.DelayBounds()); err != nil {
			return nil, err
		}
	}
	if series {
		a.res.WorkSeries = make([][]float64, c.N())
		a.res.PriceSeries = make([][]float64, c.N())
	}
	return a, nil
}

// Add accounts one applied slot.
func (a *Account) Add(s Slot) {
	c, st, act, flows := a.c, s.State, s.Action, s.Flows
	a.last = s

	var energy float64
	for i := range a.perDC {
		a.perDC[i] = act.BilledCostAt(c, st, i, a.trf)
		energy += a.perDC[i]
	}
	a.energy.Add(energy)

	clear(a.accountWork)
	var processed float64
	nJ := c.J()
	for i := 0; i < c.N(); i++ {
		var work, dSum, dCount float64
		for _, f := range flows.At(i) {
			h := act.Process[i][f.Type]
			if h == 0 {
				continue // routed only: no work, nothing processed
			}
			jt := &c.JobTypes[f.Type]
			w := h * jt.Demand
			work += w
			a.accountWork[jt.Account] += w
			// A pair that processed nothing has no delay to report either.
			if p := f.Processed; p != 0 {
				dSum += f.DelaySum
				dCount += p
				a.processed += p
				processed += p
			}
		}
		a.localDelay[i].Add(dSum, dCount)
		for _, sample := range flows.LocalDelaySamples[i] {
			a.hists[i].Add(sample.Delay, sample.Jobs)
		}
		a.workAvg[i].Add(work)
		if a.series {
			a.res.WorkSeries[i] = append(a.res.WorkSeries[i], work)
			a.res.PriceSeries[i] = append(a.res.PriceSeries[i], st.Price[i])
		}
	}
	fair := a.fair.Score(a.accountWork, st.TotalResource(c))
	a.fairScore.Add(fair)

	var arrived, dropped float64
	for j := 0; j < nJ; j++ {
		a.centralDelay.Add(flows.CentralDelaySum[j], flows.CentralRouted[j])
		a.arrived += float64(s.Arrivals[j])
		arrived += float64(s.Arrivals[j])
		dropped += float64(s.Arrivals[j] - s.Admitted[j])
	}
	a.dropped += dropped
	a.ev = telemetry.SlotEvent{Slot: s.T, DataCenter: -1, Energy: energy, Fairness: fair,
		Arrived: arrived, Processed: processed, Dropped: dropped}

	// One pass over the post-slot backlogs for both queue statistics,
	// summing in Lengths.Sum's order over the eligible pairs: every other
	// local queue is an exact +0.0. Backlogs are never negative, so the
	// slot's largest is all maxQ needs to see.
	var qSum, qMax float64
	for _, v := range s.Post.Central {
		qSum += v
		if v > qMax {
			qMax = v
		}
	}
	for i, row := range s.Post.Local {
		for _, j := range a.pairs.At(i) {
			v := row[j]
			qSum += v
			if v > qMax {
				qMax = v
			}
		}
	}
	a.maxQ.Add(qMax)
	a.avgQ.Add(qSum)
}

// Event builds the slot event of the last Add: its bill, total and per
// site, its fairness score, its job counts and its post-slot backlogs, and
// with detail the slot evidence. The event owns everything it carries: the
// caller rewrites its state, action, backlogs and flows on its next slot,
// so the detail copies them.
func (a *Account) Event(origin, scheduler string, detail bool) telemetry.SlotEvent {
	s, ev := &a.last, a.ev
	ev.Origin, ev.Scheduler = origin, scheduler
	ev.EnergyPerDC = append([]float64(nil), a.perDC...)
	for _, v := range s.Post.Central {
		ev.CentralBacklog += v
	}
	ev.LocalBacklog = make([]float64, len(s.Post.Local))
	for i, row := range s.Post.Local {
		for _, j := range a.pairs.At(i) {
			ev.LocalBacklog[i] += row[j]
		}
	}
	ev.TotalBacklog = ev.CentralBacklog
	for _, v := range ev.LocalBacklog {
		ev.TotalBacklog += v
	}
	if detail {
		ev.Detail = &telemetry.SlotDetail{
			State:     s.State.Clone(),
			Action:    s.Action.Clone(),
			Pre:       s.Pre,
			Post:      s.Post.Clone(),
			Arrivals:  append([]int(nil), s.Admitted...),
			Routed:    s.Flows.Matrix(a.c.J(), func(f queue.Flow) float64 { return f.Routed }),
			Processed: s.Flows.Matrix(a.c.J(), func(f queue.Flow) float64 { return f.Processed }),
		}
	}
	return ev
}

// Result finalizes the running aggregates over the slots added so far,
// under the scheduler's name, with the slot counter and the final backlog
// the caller holds. The Result is the account's, and stays valid (but
// stale) across later Adds.
func (a *Account) Result(scheduler string, slots int, backlog float64) *Result {
	c, res := a.c, &a.res
	res.SchedulerName = scheduler
	res.Slots = slots
	res.AvgEnergy = a.energy.Mean()
	res.EnergySeries = a.energy.Series()
	res.AvgFairness = a.fairScore.Mean()
	res.FairnessSeries = a.fairScore.Series()
	res.AvgLocalDelay = make([]float64, c.N())
	res.AvgWorkPerDC = make([]float64, c.N())
	if a.series {
		res.LocalDelaySeries = make([][]float64, c.N())
	}
	for i := 0; i < c.N(); i++ {
		res.AvgLocalDelay[i] = a.localDelay[i].Value()
		res.AvgWorkPerDC[i] = a.workAvg[i].Mean()
		if a.series {
			res.LocalDelaySeries[i] = a.localDelay[i].Series()
		}
	}
	res.AvgCentralDelay = a.centralDelay.Value()
	res.DelayHistograms = a.hists
	res.MaxQueue = a.maxQ.Value()
	res.AvgQueue = a.avgQ.Mean()
	res.FinalBacklog = backlog
	res.TotalArrived = a.arrived
	res.TotalProcessed = a.processed
	res.TotalDropped = a.dropped
	return res
}

// Export returns the durable state at slot, over the queue snapshot queues,
// with the account's lifetime job counters.
func (a *Account) Export(slot int, queues []byte) *EngineState {
	return &EngineState{
		Slot:           slot,
		Queues:         queues,
		TotalArrived:   a.arrived,
		TotalProcessed: a.processed,
		TotalDropped:   a.dropped,
	}
}

// Restore takes the lifetime job counters of st. The running aggregates are
// left alone: they are derived (see EngineState).
func (a *Account) Restore(st *EngineState) {
	a.arrived, a.processed, a.dropped = st.TotalArrived, st.TotalProcessed, st.TotalDropped
}
