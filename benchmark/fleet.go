package main

import (
	"fmt"
	"math"
	"time"

	"grefar/internal/controller"
	"grefar/internal/controlplane"
	"grefar/internal/core"
	"grefar/internal/fairness"
	"grefar/internal/hollow"
	"grefar/internal/invariant"
	"grefar/internal/model"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// The scheduler knobs every workload runs at: the paper's V and a beta large
// enough that the fairness term makes each slot a convex solve.
const (
	knobV    = 7.5
	knobBeta = 100
)

// fleetSizes fixes a fleet workload's shape.
type fleetSizes struct {
	Agents     int `json:"agents"`
	Horizon    int `json:"horizon"`    // slots of generated prices and arrivals
	Partitions int `json:"partitions"` // 0 runs the single controller
	Warmup     int `json:"warmup_slots"`
	// Quality is how many slots from slot 0 cost_avg and backlog_avg_jobs
	// average over. It is a fixed count, not a time, so that the two figures
	// repeat exactly for one seed; a run lasts at least this many slots.
	Quality   int `json:"quality_slots"`
	SetupRuns int `json:"setup_runs"`
	// Block is how many slots a traced run gives one stack before it turns to
	// the next.
	Block int `json:"trace_block_slots"`
}

var (
	fleetSingleSizes = fleetSizes{Agents: 500, Horizon: 4096, Warmup: 20, Quality: 200, SetupRuns: 25, Block: 10}
	fleetPart2Sizes  = fleetSizes{Agents: 500, Horizon: 4096, Partitions: 2, Warmup: 20, Quality: 200, SetupRuns: 25, Block: 10}
)

// slotRunner is the surface the single controller and the partitioned plane
// share.
type slotRunner interface {
	RunSlot(t int, arrivals []int) (*model.Action, *model.State, []transport.AllocateAck, error)
	CentralLens() []float64
}

// fleetStack is one built fleet with its control loop.
type fleetStack struct {
	in    sim.Inputs
	fleet *hollow.Fleet
	loop  slotRunner
	plane *controlplane.Plane // nil under the single controller

	lastAct *model.Action // the latest decision, for the probes' messages
}

// buildFleet generates the inputs from the seed and starts the fleet and its
// control loop. With a recorder, the scheduler is wrapped and — under the
// single controller only — every agent connection too: the plane keeps raw
// MuxConns so that it stays on its batch path.
func buildFleet(seed int64, sz fleetSizes, rec *recorder, obs telemetry.SlotObserver) (*fleetStack, error) {
	in, err := newFleetInputs(seed, sz)
	if err != nil {
		return nil, err
	}
	fleet, err := hollow.NewFleet(in, hollow.Options{})
	if err != nil {
		return nil, err
	}
	newScheduler := func() (sched.Scheduler, error) {
		g, err := core.New(in.Cluster, core.Config{V: knobV, Beta: knobBeta})
		if err != nil || rec == nil {
			return g, err
		}
		return &tracedScheduler{inner: g, rec: rec}, nil
	}
	fs := &fleetStack{in: in, fleet: fleet}
	conns := fleet.Conns()
	if sz.Partitions > 0 {
		fs.plane, err = controlplane.New(in.Cluster, conns, controlplane.Config{
			Partitions:   sz.Partitions,
			NewScheduler: newScheduler,
			Policy:       controller.Degrade,
			Observer:     obs,
		})
		fs.loop = fs.plane
	} else {
		var sch sched.Scheduler
		if sch, err = newScheduler(); err == nil && rec != nil {
			conns, err = traceConns(conns, rec)
		}
		if err == nil {
			opts := []controller.Option{controller.WithFailurePolicy(controller.Degrade)}
			if obs != nil {
				opts = append(opts, controller.WithObserver(obs))
			}
			fs.loop, err = controller.New(in.Cluster, sch, conns, opts...)
		}
	}
	if err != nil {
		fleet.Close()
		return nil, err
	}
	return fs, nil
}

// quality accumulates the schedule-quality figures from what each slot
// returns: g(t) = e(t) - beta*f(t) and the total backlog after the slot. It
// allocates nothing per slot, so it does not show in allocs_per_slot.
type quality struct {
	c     *model.Cluster
	fair  *fairness.Quadratic
	alloc []float64
	limit int

	slots               int
	costSum, backlogSum float64
	arrived, processed  float64
}

func newQuality(c *model.Cluster, limit int) (*quality, error) {
	weights := make([]float64, c.M())
	for m, a := range c.Accounts {
		weights[m] = a.Weight
	}
	fair, err := fairness.NewQuadratic(weights)
	if err != nil {
		return nil, err
	}
	return &quality{c: c, fair: fair, alloc: make([]float64, c.M()), limit: limit}, nil
}

func (q *quality) observe(arrivals []int, act *model.Action, st *model.State, acks []transport.AllocateAck) {
	for _, a := range arrivals {
		q.arrived += float64(a)
	}
	for i := range acks {
		for _, p := range acks[i].Processed {
			q.processed += p
		}
	}
	if q.slots >= q.limit {
		return
	}
	for m := range q.alloc {
		q.alloc[m] = 0
	}
	for i := range act.Process {
		for j, h := range act.Process[i] {
			jt := &q.c.JobTypes[j]
			q.alloc[jt.Account] += h * jt.Demand
		}
	}
	q.costSum += act.BilledCost(q.c, st, nil) - knobBeta*q.fair.Score(q.alloc, st.TotalResource(q.c))
	q.backlogSum += q.arrived - q.processed
	q.slots++
}

func (q *quality) costAvg() float64    { return q.costSum / float64(q.slots) }
func (q *quality) backlogAvg() float64 { return q.backlogSum / float64(q.slots) }

// slot runs slot t and returns how long the control loop took. The quality
// bookkeeping happens after the clock stops.
func (fs *fleetStack) slot(t int, rec *recorder, q *quality, o *outcome) time.Duration {
	arrivals := fs.in.Workload.Arrivals(t)
	if rec != nil {
		rec.beginTick(t)
	}
	start := time.Now()
	act, st, acks, err := fs.loop.RunSlot(t, arrivals)
	d := time.Since(start)
	if rec != nil {
		rec.endTick()
	}
	o.Attempted++
	if err != nil {
		o.fail("slot %d: %v", t, err)
		return d
	}
	fs.lastAct = act
	q.observe(arrivals, act, st, acks)
	return d
}

// warm runs the warm-up slots, which are never timed or traced.
func (fs *fleetStack) warm(sz fleetSizes, q *quality, o *outcome) {
	for t := 0; t < sz.Warmup; t++ {
		fs.slot(t, nil, q, o)
	}
}

// close checks conservation — every arrived job is processed, in a central
// queue, or in an agent's queue — and tears the fleet down.
func (fs *fleetStack) close(q *quality, o *outcome) {
	held := fs.fleet.TotalBacklog()
	for _, l := range fs.loop.CentralLens() {
		held += l
	}
	if want := q.arrived - q.processed; math.Abs(held-want) > 1e-6*(1+want) {
		o.fail("conservation: %.3f jobs arrived, %.3f processed, %.3f held in queues", q.arrived, q.processed, held)
	}
	select {
	case err := <-fs.fleet.ServeErr():
		if err != nil {
			o.fail("fleet listener: %v", err)
		}
	default:
	}
	if err := fs.fleet.Close(); err != nil {
		o.fail("fleet close: %v", err)
	}
}

// setupFleet builds the stack sz.SetupRuns times, keeping the last, and
// returns the median build time.
func setupFleet(seed int64, sz fleetSizes) (*fleetStack, float64, error) {
	var times []float64
	for r := 0; ; r++ {
		start := time.Now()
		fs, err := buildFleet(seed, sz, nil, nil)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if r == sz.SetupRuns-1 {
			return fs, median(times), nil
		}
		if err := fs.fleet.Close(); err != nil {
			return nil, 0, err
		}
	}
}

// runFleet is the untraced run of a fleet workload: one driver calls RunSlot
// back to back (closed loop, one client) for the given time.
func runFleet(seed int64, sz fleetSizes, seconds float64) (*outcome, error) {
	o := &outcome{}
	fs, setup, err := setupFleet(seed, sz)
	if err != nil {
		return nil, err
	}
	q, err := newQuality(fs.in.Cluster, sz.Quality)
	if err != nil {
		fs.fleet.Close()
		return nil, err
	}
	fs.warm(sz, q, o)

	var ticks durations
	var heap float64
	m0 := mallocs()
	start := time.Now()
	for t := sz.Warmup; time.Since(start).Seconds() < seconds || t < sz.Quality; t++ {
		ticks = append(ticks, fs.slot(t, nil, q, o))
		if t+1 == sz.Quality {
			// Read at a fixed slot, where the queues hold the same cohorts in
			// every run of one seed, not at the end, which the run's speed moves.
			heap = heapLiveMB()
		}
	}
	wall := time.Since(start).Seconds()
	m1 := mallocs()
	fs.close(q, o)

	ms := ticks.in(time.Millisecond)
	o.setEndToEnd(setup, quantile(ms, 0.50), float64(m1-m0)/float64(len(ticks)), heap, q.costAvg(), q.backlogAvg())
	o.note("%d timed slots in %.2f s: %.3f slots/s, tick p95 %.3f ms", len(ticks), wall, float64(len(ticks))/wall, quantile(ms, 0.95))
	o.determinism = map[string]float64{"cost_avg": q.costAvg(), "backlog_avg_jobs": q.backlogAvg()}
	return o, nil
}

// tracedQuality is the quality window of a traced run's lanes: shorter than
// Quality, because the lanes share the run's time, and as fixed.
func (sz fleetSizes) tracedQuality() int { return sz.Warmup + 4*sz.Block }

// lane is one of the stacks a traced run alternates between.
type lane struct {
	fs    *fleetStack
	rec   *recorder // nil for an undecorated stack
	q     *quality
	ticks durations
}

func newLane(seed int64, sz fleetSizes, rec *recorder, obs telemetry.SlotObserver, o *outcome) (*lane, error) {
	fs, err := buildFleet(seed, sz, rec, obs)
	if err != nil {
		return nil, err
	}
	q, err := newQuality(fs.in.Cluster, sz.tracedQuality())
	if err != nil {
		fs.fleet.Close()
		return nil, err
	}
	fs.warm(sz, q, o)
	return &lane{fs: fs, rec: rec, q: q}, nil
}

// runFleetTraced is the traced run. For two thirds of the time it alternates,
// in blocks of sz.Block slots, between an undecorated stack and one under the
// decorators and the invariant checker; both run the same slots of the same
// inputs. Alternating makes the two tick times comparable on a box whose
// speed drifts over seconds. The layer probes follow on the quiesced process.
// The partitioned workload alternates with a third stack, the same fleet
// under the single controller, which is the base of its speed-up figure.
func runFleetTraced(name string, seed int64, sz fleetSizes, seconds float64, outDir string) (*outcome, error) {
	o := &outcome{Metrics: newLayerSet()}
	rec := newRecorder()
	plain, err := newLane(seed, sz, nil, nil, o)
	if err != nil {
		return nil, err
	}
	checker := invariant.NewChecker(plain.fs.in.Cluster, invariant.CheckerOptions{})
	traced, err := newLane(seed, sz, rec, checker, o)
	if err != nil {
		return nil, err
	}
	lanes := []*lane{plain, traced}
	var single *lane
	if sz.Partitions > 0 {
		one := sz
		one.Partitions = 0
		if single, err = newLane(seed, one, nil, nil, o); err != nil {
			return nil, err
		}
		lanes = append(lanes, single)
	}
	var planeBefore []controlplane.PartitionStats
	if traced.fs.plane != nil {
		planeBefore = traced.fs.plane.Stats()
	}

	watch := watchGoroutines()
	var proc procSample
	start := time.Now()
	next := sz.Warmup
	for time.Since(start).Seconds() < seconds*2/3 || next < sz.tracedQuality() {
		for _, l := range lanes {
			p0 := readProc()
			for t := next; t < next+sz.Block; t++ {
				l.ticks = append(l.ticks, l.fs.slot(t, l.rec, l.q, o))
			}
			if l == traced {
				proc = proc.plus(readProc().minus(p0))
			}
		}
		next += sz.Block
	}
	peak := watch.done()
	n := len(traced.ticks)

	if err := checker.Err(); err != nil {
		o.fail("invariant checker: %v", err)
	}
	q, qPlain := traced.q, plain.q
	if sz.Partitions == 0 && (q.costAvg() != qPlain.costAvg() || q.backlogAvg() != qPlain.backlogAvg()) {
		// The single controller promises a deterministic trajectory.
		o.fail("traced and untraced runs differ over the same %d slots: cost_avg %v vs %v, backlog_avg_jobs %v vs %v",
			q.slots, q.costAvg(), qPlain.costAvg(), q.backlogAvg(), qPlain.backlogAvg())
	}

	m := o.Metrics
	untracedLane(m, plain.ticks)
	layerShares(m, rec.slots)
	var selfs, gather, scatter, maxPart []float64
	var selfSum, tickSum time.Duration
	var stateCalls, allocCalls int
	for _, s := range rec.slots {
		var g, sc window
		if w := s.calls[transport.KindState]; w != nil {
			g = *w
		}
		if w := s.calls[transport.KindAllocate]; w != nil {
			sc = *w
		}
		stateCalls += g.n
		allocCalls += sc.n
		gather = append(gather, float64(g.length())/1e6)
		scatter = append(scatter, float64(sc.length())/1e6)
		self := s.tick - g.length() - s.decide - sc.length()
		selfs = append(selfs, float64(self)/1e6)
		selfSum += self
		tickSum += s.tick
		maxPart = append(maxPart, float64(s.decideMax)/1e6)
	}
	if sz.Partitions == 0 {
		// Only the single controller calls through the wrapped connections.
		m.set("transport.state_calls_per_slot", float64(stateCalls)/float64(n))
		m.set("transport.allocate_calls_per_slot", float64(allocCalls)/float64(n))
		m.set("transport.gather_window_ms", median(gather))
		m.set("transport.scatter_window_ms", median(scatter))
		m.set("controller.self_ms", median(selfs))
		m.set("controller.self_share", float64(selfSum)/float64(tickSum))
	} else {
		var d controlplane.PartitionStats
		for p, after := range traced.fs.plane.Stats() {
			d.Conflicts += after.Conflicts - planeBefore[p].Conflicts
			d.Retries += after.Retries - planeBefore[p].Retries
			d.Forced += after.Forced - planeBefore[p].Forced
			d.Commits += after.Commits - planeBefore[p].Commits
		}
		m.set("controlplane.conflicts_per_slot", float64(d.Conflicts)/float64(n))
		m.set("controlplane.retries_per_slot", float64(d.Retries)/float64(n))
		m.set("controlplane.forced_per_slot", float64(d.Forced)/float64(n))
		m.set("controlplane.commits_per_slot", float64(d.Commits)/float64(n))
		m.set("controlplane.decide_ms_max_part", median(maxPart))
		m.set("controlplane.speedup_vs_single", tickRatio(single.ticks, plain.ticks))
	}
	procMetrics(m, proc, n, peak)
	m.set("trace.overhead_frac", tickRatio(traced.ticks, plain.ticks)-1)
	o.determinism = map[string]float64{
		"cost_avg": q.costAvg(), "backlog_avg_jobs": q.backlogAvg(),
		"transport.state_calls_per_slot": m["transport.state_calls_per_slot"].Value,
		"core.decides_per_slot":          m["core.decides_per_slot"].Value,
	}

	// Probes, on the idle fleet.
	if err := probeFleet(m, traced.fs, next); err != nil {
		o.fail("fleet probes: %v", err)
	}
	for _, l := range lanes {
		l.fs.close(l.q, o)
	}
	if err := rec.write(outDir, name); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return o, nil
}

// tickRatio is the ratio of two lanes' median tick times.
func tickRatio(a, b durations) float64 {
	return a.median(time.Microsecond) / b.median(time.Microsecond)
}

// untracedLane reports the two timing figures of the undecorated lane that
// are printed but not held to a bound: the tail and the throughput, the latter
// over the time its own slots took.
func untracedLane(m metricSet, ticks durations) {
	var sum time.Duration
	for _, d := range ticks {
		sum += d
	}
	m.set("untraced.tick_p95_ms", quantile(ticks.in(time.Millisecond), 0.95))
	m.set("untraced.slots_per_s", float64(len(ticks))/sum.Seconds())
}

// layerShares fills the scheduler-wrapper metrics from the traced slots.
func layerShares(m metricSet, slots []slotLayers) {
	if len(slots) == 0 {
		return
	}
	var decide []float64
	var decideSum, tickSum time.Duration
	var decides int
	for _, s := range slots {
		decide = append(decide, float64(s.decide)/1e3)
		decideSum += s.decide
		tickSum += s.tick
		decides += s.decides
	}
	m.set("core.decide_us", median(decide))
	m.set("core.decide_share", float64(decideSum)/float64(tickSum))
	m.set("core.decides_per_slot", float64(decides)/float64(len(slots)))
}
