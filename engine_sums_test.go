package grefar_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"grefar/internal/availability"
	"grefar/internal/fairness"
	"grefar/internal/metrics"
	"grefar/internal/model"
	"grefar/internal/price"
	"grefar/internal/queue"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/workload"
)

// TestEngineSumsMatchDenseWalk holds sim.Engine.Step's sums over
// FlowStats.Cells to the dense walk they replace. An observer replays every
// slot's Detail.Action on a queue.Set of its own and recomputes, over all N·J
// pairs, what the engine accumulates: per-site work (model.Action.WorkAt),
// account work (model.Action.AccountWork) and the fairness score, the delay
// ratios and the processed count. Each slot's fairness and processed count,
// and then Result with every recorded series, must be bit-equal — on the
// solver-scale cluster and on one whose eligibility has gaps (a site no job
// type may use, a type that runs at one site only).
func TestEngineSumsMatchDenseWalk(t *testing.T) {
	const slots = 300
	for _, tc := range []struct {
		name   string
		inputs func(tb testing.TB) sim.Inputs
		engine func(tb testing.TB, in sim.Inputs, opt sim.Options) *sim.Engine
	}{
		{
			name:   "N=200/J=100",
			inputs: largeEngineInputs,
			engine: func(tb testing.TB, _ sim.Inputs, opt sim.Options) *sim.Engine { return newLargeEngine(tb, opt) },
		},
		{
			name:   "odd-eligibility",
			inputs: func(tb testing.TB) sim.Inputs { return oddEligibilityInputs(tb, slots) },
			engine: newEngineOn,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := tc.inputs(t)
			walk := newDenseWalk(t, in.Cluster)
			eng := tc.engine(t, in, sim.Options{RecordSeries: true, Observer: walk})
			for eng.Slot() < slots {
				if err := eng.Step(nil); err != nil {
					t.Fatal(err)
				}
			}
			if walk.processed == 0 {
				t.Fatal("nothing was processed; the comparison proves nothing")
			}
			if got, want := eng.Result(), walk.result(slots); !reflect.DeepEqual(got, want) {
				t.Fatalf("engine result differs from the dense walk:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// oddEligibilityInputs builds a five-site, five-type system with the
// placement shapes a walk over moved cells could get wrong: Eligible lists in
// no particular order, a site no job type may use (site 1: an empty row), and
// a job type that runs at one site only.
func oddEligibilityInputs(tb testing.TB, slots int) sim.Inputs {
	tb.Helper()
	c := &model.Cluster{
		Accounts: []model.Account{{Name: "a", Weight: 2}, {Name: "b", Weight: 1}},
	}
	var prices []price.Source
	avail := make([][]float64, 5)
	for i := range avail {
		c.DataCenters = append(c.DataCenters, model.DataCenter{
			Name: fmt.Sprintf("dc%d", i),
			Servers: []model.ServerType{
				{Name: "std", Speed: 1.5 + 0.1*float64(i), Power: 1},
				{Name: "eco", Speed: 1, Power: 0.5},
			},
		})
		avail[i] = []float64{3, 2}
		vals := make([]float64, 24)
		for h := range vals {
			vals[h] = 0.4 + 0.05*float64(i) + 0.2*math.Cos(2*math.Pi*float64(h+3*i)/24)
		}
		prices = append(prices, &price.Trace{Values: vals})
	}
	for j, eligible := range [][]int{{3, 0, 2}, {4}, {2, 0}, {4, 3, 0}, {3, 2}} {
		c.JobTypes = append(c.JobTypes, model.JobType{
			Name:       fmt.Sprintf("t%d", j),
			Demand:     1 + 0.5*float64(j%3),
			Eligible:   eligible,
			Account:    j % 2,
			MaxArrival: 40,
			MaxProcess: []float64{0, 12}[j%2],
		})
	}
	if err := c.Validate(); err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2012))
	counts := make([][]int, slots)
	for s := range counts {
		counts[s] = make([]int, c.J())
		for j := range counts[s] {
			counts[s][j] = rng.Intn(4)
		}
	}
	return sim.Inputs{
		Cluster:      c,
		Prices:       prices,
		Workload:     &workload.Trace{Counts: counts},
		Availability: &availability.Static{Avail: avail},
	}
}

// denseWalk is TestEngineSumsMatchDenseWalk's reference: the engine's
// per-slot metrics recomputed the way Step computed them before it walked
// FlowStats.Cells. Both test inputs bill linearly (no tariff) and score with
// the default quadratic fairness function.
type denseWalk struct {
	t    *testing.T
	c    *model.Cluster
	fair fairness.Function
	qs   *queue.Set

	scheduler          string
	energy, fairScore  *metrics.Running
	localDelay         []*metrics.Ratio
	workAvg            []*metrics.Running
	centralDelay       *metrics.Ratio
	hists              []*metrics.Histogram
	maxQ               metrics.Max
	avgQ               metrics.Running
	arrived, processed float64
	work, prices       [][]float64
	final              float64
}

func newDenseWalk(t *testing.T, c *model.Cluster) *denseWalk {
	t.Helper()
	weights := make([]float64, c.M())
	for m, a := range c.Accounts {
		weights[m] = a.Weight
	}
	fair, err := fairness.NewQuadratic(weights)
	if err != nil {
		t.Fatal(err)
	}
	w := &denseWalk{
		t: t, c: c, fair: fair, qs: queue.NewSet(c),
		energy:       metrics.NewRunning(true),
		fairScore:    metrics.NewRunning(true),
		centralDelay: metrics.NewRatio(false),
		work:         make([][]float64, c.N()),
		prices:       make([][]float64, c.N()),
	}
	for i := 0; i < c.N(); i++ {
		h, err := metrics.NewHistogram(metrics.DelayBounds())
		if err != nil {
			t.Fatal(err)
		}
		w.hists = append(w.hists, h)
		w.localDelay = append(w.localDelay, metrics.NewRatio(true))
		w.workAvg = append(w.workAvg, metrics.NewRunning(false))
	}
	return w
}

func (w *denseWalk) WantsSlotDetail() bool { return true }

// ObserveSlot runs on the stepping goroutine, inside Step, so it may fail
// the test directly.
func (w *denseWalk) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Origin != telemetry.OriginSim {
		return
	}
	t, c, d := w.t, w.c, ev.Detail
	flows, err := w.qs.Apply(ev.Slot, d.Action)
	if err != nil {
		t.Fatalf("slot %d: replaying the action: %v", ev.Slot, err)
	}
	routed := flows.Matrix(c.J(), func(f queue.Flow) float64 { return f.Routed })
	processed := flows.Matrix(c.J(), func(f queue.Flow) float64 { return f.Processed })
	if !reflect.DeepEqual(routed, d.Routed) || !reflect.DeepEqual(processed, d.Processed) {
		t.Fatalf("slot %d: the replayed action moved other jobs than the engine's", ev.Slot)
	}
	if err := w.qs.Arrive(ev.Slot, d.Arrivals); err != nil {
		t.Fatalf("slot %d: replaying the arrivals: %v", ev.Slot, err)
	}
	post := w.qs.Lengths()
	if !reflect.DeepEqual(post, d.Post) {
		t.Fatalf("slot %d: the replayed queues differ from the engine's", ev.Slot)
	}

	fair := w.fair.Score(d.Action.AccountWork(c), d.State.TotalResource(c))
	if math.Float64bits(fair) != math.Float64bits(ev.Fairness) {
		t.Fatalf("slot %d: engine fairness %v, dense walk %v", ev.Slot, ev.Fairness, fair)
	}
	w.energy.Add(d.Action.BilledCost(c, d.State, nil))
	w.fairScore.Add(fair)
	delaySum := flows.Matrix(c.J(), func(f queue.Flow) float64 { return f.DelaySum })
	var slotProcessed float64
	for i := 0; i < c.N(); i++ {
		var dSum, dCount float64
		for j := 0; j < c.J(); j++ {
			p := processed[i][j]
			dSum += delaySum[i][j]
			dCount += p
			w.processed += p
			slotProcessed += p
		}
		w.localDelay[i].Add(dSum, dCount)
		for _, s := range flows.LocalDelaySamples[i] {
			w.hists[i].Add(s.Delay, s.Jobs)
		}
		work := d.Action.WorkAt(c, i)
		w.workAvg[i].Add(work)
		w.work[i] = append(w.work[i], work)
		w.prices[i] = append(w.prices[i], d.State.Price[i])
	}
	if math.Float64bits(slotProcessed) != math.Float64bits(ev.Processed) {
		t.Fatalf("slot %d: engine processed %v, dense walk %v", ev.Slot, ev.Processed, slotProcessed)
	}
	for j := 0; j < c.J(); j++ {
		w.centralDelay.Add(flows.CentralDelaySum[j], flows.CentralRouted[j])
		w.arrived += float64(d.Arrivals[j])
	}
	var qMax float64
	for _, v := range post.Central {
		qMax = max(qMax, v)
	}
	for i := range post.Local {
		for _, v := range post.Local[i] {
			qMax = max(qMax, v)
		}
	}
	w.final = post.Sum()
	w.maxQ.Add(qMax)
	w.avgQ.Add(w.final)
	w.scheduler = ev.Scheduler
}

// result assembles the Result the engine should report after slots slots.
func (w *denseWalk) result(slots int) *sim.Result {
	n := w.c.N()
	res := &sim.Result{
		SchedulerName:    w.scheduler,
		Slots:            slots,
		AvgEnergy:        w.energy.Mean(),
		EnergySeries:     w.energy.Series(),
		AvgFairness:      w.fairScore.Mean(),
		FairnessSeries:   w.fairScore.Series(),
		AvgLocalDelay:    make([]float64, n),
		LocalDelaySeries: make([][]float64, n),
		AvgCentralDelay:  w.centralDelay.Value(),
		AvgWorkPerDC:     make([]float64, n),
		WorkSeries:       w.work,
		PriceSeries:      w.prices,
		DelayHistograms:  w.hists,
		MaxQueue:         w.maxQ.Value(),
		AvgQueue:         w.avgQ.Mean(),
		FinalBacklog:     w.final,
		TotalArrived:     w.arrived,
		TotalProcessed:   w.processed,
	}
	for i := 0; i < n; i++ {
		res.AvgLocalDelay[i] = w.localDelay[i].Value()
		res.LocalDelaySeries[i] = w.localDelay[i].Series()
		res.AvgWorkPerDC[i] = w.workAvg[i].Mean()
	}
	return res
}
