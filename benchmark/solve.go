package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"grefar/internal/availability"
	"grefar/internal/core"
	"grefar/internal/model"
	"grefar/internal/price"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/workload"
)

// solveSizes fixes the solve-bound workload's shape.
type solveSizes struct {
	Sites    int `json:"sites"`
	JobTypes int `json:"job_types"`
	Accounts int `json:"accounts"`
	// Eligible is how many sites each job type may run at; types are striped
	// so that Eligible/Sites of all (site, type) pairs can ever be active.
	Eligible  int `json:"eligible_sites"`
	Horizon   int `json:"horizon"` // slots of generated arrivals (the trace wraps)
	Warmup    int `json:"warmup_slots"`
	Quality   int `json:"quality_slots"` // see fleetSizes.Quality
	SetupRuns int `json:"setup_runs"`
	// ProbeSlots is how many slots each solver kind decides in the probe, and
	// ProbeActions how many captured actions the queue probe replays.
	ProbeSlots   int `json:"probe_slots"`
	ProbeActions int `json:"probe_actions"`
	// Checked is how many slots the traced run repeats under the invariant
	// checker, and Block how many slots one engine runs before the other's turn.
	Checked int `json:"checked_slots"`
	Block   int `json:"trace_block_slots"`
}

var solveLargeSizes = solveSizes{
	Sites: 200, JobTypes: 100, Accounts: 8, Eligible: 20, Horizon: 2048,
	Warmup: 50, Quality: 3000, SetupRuns: 25, ProbeSlots: 300, ProbeActions: 16, Checked: 400, Block: 50,
}

// newSolveInputs generates the solve-bound instance from the seed: two-server
// sites in three efficiency classes, job types striped over the sites and the
// accounts, diurnal prices, static availability, and seeded arrivals at about
// 60% of the capacity each stripe of sites offers its job types.
func newSolveInputs(seed int64, sz solveSizes) (sim.Inputs, error) {
	n, jn := sz.Sites, sz.JobTypes
	if sz.Eligible <= 0 || n%sz.Eligible != 0 {
		return sim.Inputs{}, fmt.Errorf("%d sites do not split into stripes of %d", n, sz.Eligible)
	}
	stripes := n / sz.Eligible // site i serves the types j with j%stripes == i%stripes
	c := &model.Cluster{
		DataCenters: make([]model.DataCenter, n),
		JobTypes:    make([]model.JobType, jn),
		Accounts:    make([]model.Account, sz.Accounts),
	}
	avail := make([][]float64, n)
	prices := make([]price.Source, n)
	stripeCap := make([]float64, stripes)
	for i := range c.DataCenters {
		class := i % 3
		c.DataCenters[i] = model.DataCenter{
			Name: fmt.Sprintf("dc%d", i),
			Servers: []model.ServerType{
				{Name: "std", Speed: []float64{2.0, 1.6, 1.2}[class], Power: []float64{1.0, 1.1, 1.3}[class]},
				{Name: "eco", Speed: []float64{1.2, 1.0, 0.8}[class], Power: []float64{0.5, 0.6, 0.7}[class]},
			},
		}
		avail[i] = []float64{4, 3}
		for k, s := range c.DataCenters[i].Servers {
			stripeCap[i%stripes] += s.Speed * avail[i][k]
		}
		prices[i] = diurnalPrices(i)
	}
	stripeTypes := make([]int, stripes)
	for j := range c.JobTypes {
		var eligible []int
		for i := j % stripes; i < n; i += stripes {
			eligible = append(eligible, i)
		}
		c.JobTypes[j] = model.JobType{
			Name:       fmt.Sprintf("type%d", j),
			Demand:     1.0 + 0.25*float64(j%5),
			Eligible:   eligible,
			Account:    j % sz.Accounts,
			MaxArrival: 1 << 20,
		}
		stripeTypes[j%stripes]++
	}
	for m := range c.Accounts {
		c.Accounts[m] = model.Account{Name: fmt.Sprintf("org%d", m), Weight: 1 + 0.5*float64(m%3)}
	}
	if err := c.Validate(); err != nil {
		return sim.Inputs{}, err
	}

	rng := rand.New(rand.NewSource(seed))
	counts := make([][]int, sz.Horizon)
	for t := range counts {
		counts[t] = make([]int, jn)
	}
	for j := range c.JobTypes {
		jobs := 0.6 * stripeCap[j%stripes] / float64(stripeTypes[j%stripes]) / c.JobTypes[j].Demand
		for t, m := range arrivalNoise(rng, sz.Horizon) {
			counts[t][j] = int(jobs * diurnal(t) * m)
		}
	}
	return sim.Inputs{
		Cluster:      c,
		Prices:       prices,
		Workload:     &workload.Trace{Counts: counts},
		Availability: &availability.Static{Avail: avail},
	}, nil
}

// solveStack is one built engine.
type solveStack struct {
	in  sim.Inputs
	eng *sim.Engine
}

// buildSolve generates the inputs and builds scheduler and engine. wrap, when
// non-nil, decorates the scheduler; cfg carries the solver kind and observer.
func buildSolve(seed int64, sz solveSizes, cfg core.Config, wrap func(sched.Scheduler) sched.Scheduler, opt sim.Options) (*solveStack, error) {
	in, err := newSolveInputs(seed, sz)
	if err != nil {
		return nil, err
	}
	cfg.V, cfg.Beta, cfg.WarmStart = knobV, knobBeta, true
	g, err := core.New(in.Cluster, cfg)
	if err != nil {
		return nil, err
	}
	var s sched.Scheduler = g
	if wrap != nil {
		s = wrap(g)
	}
	eng, err := sim.NewEngine(in, s, opt)
	if err != nil {
		return nil, err
	}
	return &solveStack{in: in, eng: eng}, nil
}

// step runs one slot and returns how long Engine.Step took.
func (ss *solveStack) step(rec *recorder, o *outcome) time.Duration {
	if rec != nil {
		rec.beginTick(ss.eng.Slot())
	}
	start := time.Now()
	err := ss.eng.Step(nil)
	d := time.Since(start)
	if rec != nil {
		rec.endTick()
	}
	o.Attempted++
	if err != nil {
		o.fail("%v", err)
	}
	return d
}

// qualityNow reads the engine's running averages: g = e - beta*f and the
// total backlog, over every slot since slot 0.
func (ss *solveStack) qualityNow() (cost, backlog float64) {
	r := ss.eng.Result()
	return r.AvgEnergy - knobBeta*r.AvgFairness, r.AvgQueue
}

// conserved checks arrived = processed + backlog on the engine's own counts.
func (ss *solveStack) conserved(o *outcome) {
	r := ss.eng.Result()
	if math.Abs(r.TotalArrived-r.TotalProcessed-r.FinalBacklog) > 1e-6*(1+r.TotalArrived) {
		o.fail("conservation: %.3f jobs arrived, %.3f processed, %.3f in queues", r.TotalArrived, r.TotalProcessed, r.FinalBacklog)
	}
}

// runSolve is the untraced run: Engine.Step back to back, no wire at all.
func runSolve(seed int64, sz solveSizes, seconds float64) (*outcome, error) {
	o := &outcome{}
	var setups []float64
	var ss *solveStack
	for r := 0; r < sz.SetupRuns; r++ {
		start := time.Now()
		var err error
		if ss, err = buildSolve(seed, sz, core.Config{}, nil, sim.Options{}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	for ss.eng.Slot() < sz.Warmup {
		ss.step(nil, o)
	}
	var ticks durations
	var cost, backlog, heap float64
	m0 := mallocs()
	start := time.Now()
	for time.Since(start).Seconds() < seconds || ss.eng.Slot() < sz.Quality {
		ticks = append(ticks, ss.step(nil, o))
		if ss.eng.Slot() == sz.Quality {
			cost, backlog = ss.qualityNow()
			heap = heapLiveMB() // at a fixed slot; see runFleet
		}
	}
	wall := time.Since(start).Seconds()
	m1 := mallocs()
	ss.conserved(o)

	ms := ticks.in(time.Millisecond)
	o.setEndToEnd(median(setups), quantile(ms, 0.50), float64(m1-m0)/float64(len(ticks)), heap, cost, backlog)
	o.note("%d timed slots in %.2f s: %.3f slots/s, tick p95 %.3f ms", len(ticks), wall, float64(len(ticks))/wall, quantile(ms, 0.95))
	o.determinism = map[string]float64{"cost_avg": cost, "backlog_avg_jobs": backlog}
	return o, nil
}

// solveStats collects the solver statistics core.Decide publishes.
type solveStats struct {
	iters, decides, warmHits, notConverged int
}

func (w *solveStats) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Solve == nil {
		return
	}
	w.decides++
	w.iters += ev.Solve.Iterations
	// The previous slot's iterate seeded this solve, as it was or after the
	// repair against this slot's caps (which moving backlogs make the rule).
	if ev.Solve.Warm == telemetry.WarmHit || ev.Solve.Warm == telemetry.WarmRepaired {
		w.warmHits++
	}
	if !ev.Solve.Converged {
		w.notConverged++
	}
}

// actionKeeper keeps every every-th applied action, with its arrivals, for
// the queue probe.
type actionKeeper struct {
	keep, every int
	actions     []*model.Action
	arrived     [][]int
}

func (k *actionKeeper) WantsSlotDetail() bool { return true }

func (k *actionKeeper) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Detail != nil && len(k.actions) < k.keep && ev.Slot%k.every == 0 {
		k.actions = append(k.actions, ev.Detail.Action)
		k.arrived = append(k.arrived, ev.Detail.Arrivals)
	}
}

// runSolveTraced is the traced run. A first engine runs sz.Checked slots under
// the invariant checker and the solver-statistics observer, untimed: at this
// size the checker's copies cost as much as the slot itself and the
// observer's event a tenth of it, so neither can ride in the timed lanes.
// Then, for two thirds of the time, an undecorated engine and one under the
// scheduler wrapper alternate in blocks of sz.Block slots over the same
// inputs (see runFleetTraced). All three must agree bit
// for bit on the slots they share. The solver-kind and queue probes follow.
func runSolveTraced(name string, seed int64, sz solveSizes, seconds float64, outDir string) (*outcome, error) {
	o := &outcome{Metrics: newLayerSet()}

	keeper := &actionKeeper{keep: sz.ProbeActions, every: sz.Checked/sz.ProbeActions + 1}
	stats := &solveStats{}
	checked, err := buildSolve(seed, sz, core.Config{Observer: stats}, nil, sim.Options{Observer: keeper, Check: true})
	if err != nil {
		return nil, err
	}
	for checked.eng.Slot() < sz.Checked {
		if checked.eng.Slot() == sz.Warmup {
			*stats = solveStats{} // the cold start is not the steady state
		}
		checked.step(nil, o)
	}
	checked.conserved(o)
	if err := checked.eng.CheckerErr(); err != nil {
		o.fail("invariant checker: %v", err)
	}
	checkedCost, checkedBacklog := checked.qualityNow()

	rec := newRecorder()
	wrap := func(s sched.Scheduler) sched.Scheduler { return &tracedScheduler{inner: s, rec: rec} }
	ss, err := buildSolve(seed, sz, core.Config{}, wrap, sim.Options{})
	if err != nil {
		return nil, err
	}
	for ss.eng.Slot() < sz.Warmup {
		ss.step(nil, o)
	}
	gw := watchGoroutines()
	var proc procSample
	var base, ticks durations
	// One block without spans, one with, on the same engine: the wrapper
	// records only inside an open tick, so the two differ by the recording
	// alone and share every cache line and allocation.
	block := func(r *recorder, into *durations) {
		for k := 0; k < sz.Block; k++ {
			*into = append(*into, ss.step(r, o))
			if ss.eng.Slot() == sz.Checked {
				if cost, backlog := ss.qualityNow(); cost != checkedCost || backlog != checkedBacklog {
					o.fail("checked and unchecked runs differ over the same %d slots: cost_avg %v vs %v, backlog_avg_jobs %v vs %v",
						sz.Checked, checkedCost, cost, checkedBacklog, backlog)
				}
			}
		}
	}
	start := time.Now()
	for time.Since(start).Seconds() < seconds*2/3 || ss.eng.Slot() < sz.Checked {
		block(nil, &base)
		p0 := readProc()
		block(rec, &ticks)
		proc = proc.plus(readProc().minus(p0))
	}
	peak := gw.done()
	n := len(ticks)
	ss.conserved(o)

	m := o.Metrics
	untracedLane(m, base)
	layerShares(m, rec.slots)
	var self []float64
	for _, s := range rec.slots {
		self = append(self, float64(s.tick-s.decide)/1e3)
	}
	m.set("sim.step_self_us", median(self))
	if stats.decides > 0 {
		m.set("solve.fw_iters_per_slot", float64(stats.iters)/float64(stats.decides))
		m.set("core.warm_hit_frac", float64(stats.warmHits)/float64(stats.decides))
		m.set("solve.not_converged", float64(stats.notConverged))
	}
	procMetrics(m, proc, n, peak)
	m.set("trace.overhead_frac", tickRatio(ticks, base)-1)
	o.determinism = map[string]float64{
		"cost_avg": checkedCost, "backlog_avg_jobs": checkedBacklog,
		"core.decides_per_slot": m["core.decides_per_slot"].Value,
	}

	if err := probeSolvers(m, seed, sz, o); err != nil {
		o.fail("solver probe: %v", err)
	}
	if err := probeQueue(m, ss.in.Cluster, keeper.actions, keeper.arrived); err != nil {
		o.fail("queue probe: %v", err)
	}
	if err := rec.write(outDir, name); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return o, nil
}

// probeSolvers drives a fresh engine per solver kind over the same generated
// inputs and reports each kind's median Decide time. Dense and sparse decide
// bit-identically, so they see the same (State, Lengths) sequence; the
// decomposed solver follows its own, slightly different, trajectory.
func probeSolvers(m metricSet, seed int64, sz solveSizes, o *outcome) error {
	kinds := []struct {
		kind   core.SolverKind
		metric string
	}{
		{core.SolverMonolithic, "core.decide_dense_us"},
		{core.SolverSparse, "core.decide_sparse_us"},
		{core.SolverDecomposed, "core.decide_decomposed_us"},
	}
	for _, k := range kinds {
		rec := newRecorder()
		wrap := func(s sched.Scheduler) sched.Scheduler { return &tracedScheduler{inner: s, rec: rec} }
		ss, err := buildSolve(seed, sz, core.Config{Solver: k.kind}, wrap, sim.Options{})
		if err != nil {
			return err
		}
		for ss.eng.Slot() < sz.Warmup {
			ss.step(nil, o)
		}
		m0 := mallocs()
		for ss.eng.Slot() < sz.Warmup+sz.ProbeSlots {
			ss.step(rec, o)
		}
		m1 := mallocs()
		var decide []float64
		for _, s := range rec.slots {
			decide = append(decide, float64(s.decide)/1e3)
		}
		m.set(k.metric, median(decide))
		if k.kind == core.SolverMonolithic {
			// Allocations of a whole Engine.Step under the default solver, the
			// recorder's few included; the engine's own share is constant across
			// solver kinds.
			m.set("core.decide_allocs", float64(m1-m0)/float64(sz.ProbeSlots))
		}
	}
	return nil
}

// probeQueue replays captured actions and arrivals on a standalone queue set
// of the workload's shape, timing Apply+Arrive and Lengths.
func probeQueue(m metricSet, c *model.Cluster, actions []*model.Action, arrived [][]int) error {
	if len(actions) == 0 {
		return fmt.Errorf("no actions were captured")
	}
	qs := queue.NewSet(c)
	var apply, lengths durations
	for t := 0; t < 20*len(actions); t++ {
		k := t % len(actions)
		start := time.Now()
		if _, err := qs.Apply(t, actions[k]); err != nil {
			return err
		}
		if err := qs.Arrive(t, arrived[k]); err != nil {
			return err
		}
		mid := time.Now()
		_ = qs.Lengths()
		lengths = append(lengths, time.Since(mid))
		apply = append(apply, mid.Sub(start))
	}
	m.set("queue.apply_us", apply.median(time.Microsecond))
	m.set("queue.lengths_us", lengths.median(time.Microsecond))
	return nil
}
