// Package controlplane implements a partitioned shared-state control plane
// for the distributed GreFar deployment: N controller partitions, each
// owning a disjoint contiguous subset of the data centers, run
// gather -> decide -> scatter concurrently against a shared versioned
// snapshot of the queue state (the central ledgers plus the health tracker's
// shadow views) with optimistic commit. A partition's commit is rejected —
// and its decision retried against a fresh snapshot — when a conflicting
// commit advanced a central-queue row it claims jobs from, the
// conflict-aware request distribution of Arktos-style scale-out schedulers.
//
// The partitions reuse the single controller's building blocks rather than
// forking them: the controller.Tracker drives the identical
// Healthy/Suspect/Dead/Rejoining machine and shadow ledgers per owned agent,
// gather and scatter ride transport.MuxClient with calls batched per
// connection, and the emitted per-slot telemetry is constructed field by
// field like the controller's, so the invariant checker accepts every
// applied slot.
//
// Deterministic mode (Config.Deterministic) makes every partition decide
// from the slot-initial snapshot with commit validation disabled: because
// each partition runs an identically-configured deterministic scheduler on
// identical inputs, the merged action equals the single controller's and the
// whole trajectory is byte-identical to it — the equivalence
// TestPartitionedMatchesSingle pins against a golden trace.
package controlplane

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"grefar/internal/controller"
	"grefar/internal/fairness"
	"grefar/internal/metrics"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
	"grefar/internal/workload"
)

// Config tunes a Plane. Partitions and NewScheduler are required.
type Config struct {
	// Partitions is the number of controller partitions; the data centers are
	// split into that many contiguous, near-equal ownership ranges.
	Partitions int
	// Deterministic disables optimistic concurrency: every partition decides
	// from the slot-initial snapshot and commits without validation, which
	// reproduces the single-controller trajectory byte-identically.
	Deterministic bool
	// NewScheduler builds one scheduler per partition. Schedulers are
	// stateful, so each partition needs its own instance; for deterministic
	// mode they must be identically configured.
	NewScheduler func() (sched.Scheduler, error)
	// Policy, SuspectAfter, DeadAfter configure the shared health tracker
	// exactly like the single controller's options.
	Policy       controller.FailurePolicy
	SuspectAfter int
	DeadAfter    int
	// MaxRetries bounds a partition's conflict-retry loop per slot; after
	// that many rejections it commits unvalidated (counted in Stats.Forced).
	// Default: Partitions — by then every conflicting peer has committed.
	MaxRetries int
	// Observer receives one SlotEvent per slot (origin "controller"),
	// identical in shape to the single controller's.
	Observer telemetry.SlotObserver
	// Registry, when set, publishes the tracker's health families plus the
	// per-partition commit telemetry (conflicts, retries, commits, commit
	// latency).
	Registry *telemetry.Registry
}

// Plane drives the partitioned control loop. It exposes the same slot and
// run surfaces as controller.Controller so daemons and experiments can treat
// the two interchangeably.
type Plane struct {
	cluster *model.Cluster
	conns   []controller.AgentConn
	cfg     Config
	fair    fairness.Function
	obs     telemetry.SlotObserver
	detail  bool
	tracker *controller.Tracker
	board   *board
	parts   []*partition
	metrics *planeMetrics
	scratch *controller.SlotScratch
}

// partition is one controller partition: its contiguous ownership range, its
// scheduler instance, and its commit telemetry.
type partition struct {
	id    int
	owned []int // global data-center ids, ascending
	sch   sched.Scheduler

	conflicts atomic.Int64
	retries   atomic.Int64
	commits   atomic.Int64
	forced    atomic.Int64
}

// planeMetrics is the registry surface of the commit protocol.
type planeMetrics struct {
	conflicts *telemetry.CounterVec
	retries   *telemetry.CounterVec
	commits   *telemetry.CounterVec
	latency   *telemetry.HistogramVec
}

// PartitionStats is one partition's commit-protocol counters.
type PartitionStats struct {
	Partition int
	Owned     int
	Conflicts int64 // commits rejected on a version mismatch
	Retries   int64 // re-decide rounds after a rejection
	Commits   int64 // successful commits (slots decided)
	Forced    int64 // commits applied unvalidated after MaxRetries rejections
}

// New builds a partitioned control plane over the given agent connections;
// conns[i] must serve data center i.
func New(c *model.Cluster, conns []controller.AgentConn, cfg Config) (*Plane, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(conns) != c.N() {
		return nil, fmt.Errorf("got %d agent conns, cluster has %d data centers", len(conns), c.N())
	}
	if cfg.Partitions < 1 || cfg.Partitions > c.N() {
		return nil, fmt.Errorf("partitions %d outside [1,%d]", cfg.Partitions, c.N())
	}
	if cfg.NewScheduler == nil {
		return nil, fmt.Errorf("nil scheduler factory")
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = cfg.Partitions
	}
	weights := make([]float64, c.M())
	for m, a := range c.Accounts {
		weights[m] = a.Weight
	}
	fair, err := fairness.NewQuadratic(weights)
	if err != nil {
		return nil, err
	}
	pl := &Plane{
		cluster: c,
		conns:   conns,
		cfg:     cfg,
		fair:    fair,
		obs:     cfg.Observer,
		board:   newBoard(c.J()),
		scratch: controller.NewSlotScratch(c),
		tracker: controller.NewTracker(c, conns, controller.HealthConfig{
			Policy:       cfg.Policy,
			SuspectAfter: cfg.SuspectAfter,
			DeadAfter:    cfg.DeadAfter,
		}, cfg.Registry),
	}
	pl.detail = telemetry.WantsDetail(pl.obs)
	n, p := c.N(), cfg.Partitions
	for id := 0; id < p; id++ {
		lo, hi := id*n/p, (id+1)*n/p
		owned := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			owned = append(owned, i)
		}
		s, err := cfg.NewScheduler()
		if err != nil {
			return nil, fmt.Errorf("partition %d scheduler: %w", id, err)
		}
		if s == nil {
			return nil, fmt.Errorf("partition %d: scheduler factory returned nil", id)
		}
		pl.parts = append(pl.parts, &partition{id: id, owned: owned, sch: s})
	}
	if cfg.Registry != nil {
		pl.metrics = &planeMetrics{
			conflicts: cfg.Registry.Counter("grefar_controlplane_commit_conflicts_total",
				"Optimistic commits rejected because a conflicting commit advanced a claimed central-queue row.", "partition"),
			retries: cfg.Registry.Counter("grefar_controlplane_commit_retries_total",
				"Re-decide rounds run after a rejected commit.", "partition"),
			commits: cfg.Registry.Counter("grefar_controlplane_commits_total",
				"Successful partition commits (one per partition per applied slot).", "partition"),
			latency: cfg.Registry.Histogram("grefar_controlplane_commit_seconds",
				"Wall-clock time from a partition's first snapshot to its accepted commit, retries included.",
				[]float64{.00005, .0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25}, "partition"),
		}
	}
	return pl, nil
}

// Partitions returns the number of controller partitions.
func (pl *Plane) Partitions() int { return len(pl.parts) }

// Owned returns partition p's data-center ids.
func (pl *Plane) Owned(p int) []int { return append([]int(nil), pl.parts[p].owned...) }

// Health returns the per-agent health states from the shared tracker.
func (pl *Plane) Health() []controller.AgentHealth { return pl.tracker.Health() }

// CentralLens returns the central backlog per job type.
func (pl *Plane) CentralLens() []float64 { return pl.board.lensUnclaimed() }

// Stats returns each partition's commit-protocol counters.
func (pl *Plane) Stats() []PartitionStats {
	out := make([]PartitionStats, len(pl.parts))
	for i, p := range pl.parts {
		out[i] = PartitionStats{
			Partition: p.id,
			Owned:     len(p.owned),
			Conflicts: p.conflicts.Load(),
			Retries:   p.retries.Load(),
			Commits:   p.commits.Load(),
			Forced:    p.forced.Load(),
		}
	}
	return out
}

func partLabel(id int) string { return strconv.Itoa(id) }

// errAgentDead marks an agent excluded from the gather set because its
// health state is Dead; the slot opens with a probe for it instead.
var errAgentDead = errors.New("agent is dead; probing instead of gathering")

// joinAgentErrors aggregates per-agent failures into one error naming every
// failed agent, matching the single controller's strict-abort shape.
func joinAgentErrors(phase string, errs []error) error {
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("agent %d %s: %w", i, phase, err))
		}
	}
	return errors.Join(joined...)
}

// callPlan groups one partition's owned agents by wire: agents behind the
// same MuxClient share one batched frame; everything else (chaos-wrapped
// conns, reconnecting clients, in-process fakes) falls back to a concurrent
// per-agent call.
type callPlan struct {
	batches  map[*transport.MuxClient][]int // client -> global agent ids
	fallback []int
}

func (pl *Plane) plan(agents []int) callPlan {
	cp := callPlan{batches: make(map[*transport.MuxClient][]int)}
	for _, i := range agents {
		if mc, ok := pl.conns[i].(*transport.MuxConn); ok {
			cli := mc.Client()
			cp.batches[cli] = append(cp.batches[cli], i)
		} else {
			cp.fallback = append(cp.fallback, i)
		}
	}
	return cp
}

// callMany issues one kind of RPC to every listed agent — batched per
// MuxClient, concurrent singles otherwise — writing results and errors at
// the agents' global indices. req(i) builds the request; resp(i) returns the
// decode destination (may be nil to discard).
func (pl *Plane) callMany(ctx context.Context, agents []int, kind string,
	req func(i int) any, resp func(i int) any, errs []error) {
	cp := pl.plan(agents)
	var wg sync.WaitGroup
	for cli, ids := range cp.batches {
		wg.Add(1)
		go func(cli *transport.MuxClient, ids []int) {
			defer wg.Done()
			calls := make([]transport.BatchCall, len(ids))
			for k, i := range ids {
				calls[k] = transport.BatchCall{
					Target: pl.conns[i].(*transport.MuxConn).Target(),
					Kind:   kind,
					Req:    req(i),
					Resp:   resp(i),
				}
			}
			start := time.Now()
			err := cli.CallBatch(ctx, calls)
			rtt := time.Since(start)
			for k, i := range ids {
				pl.tracker.ObserveRTT(i, rtt)
				if err != nil {
					errs[i] = err
					continue
				}
				errs[i] = calls[k].Err
			}
		}(cli, ids)
	}
	for _, i := range cp.fallback {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = pl.tracker.Call(ctx, i, kind, req(i), resp(i))
		}(i)
	}
	wg.Wait()
}

// RunSlot executes one slot of the partitioned control loop.
func (pl *Plane) RunSlot(t int, arrivals []int) (*model.Action, *model.State, []transport.AllocateAck, error) {
	return pl.RunSlotContext(context.Background(), t, arrivals)
}

// RunSlotContext is RunSlot with cancellation threaded into the agent calls.
//
// Slot structure: (1) each partition concurrently probes its Dead agents,
// gathers its owned agents' state reports (batched per connection), and
// resolves them into the shared health tracker; (2) the global state is
// assembled once from the reports and shadows; (3) each partition
// concurrently decides against a versioned snapshot of the central board and
// commits its claim optimistically, retrying on conflict; (4) the merged
// action's central pops execute once in data-center order — so the realized
// routing is identical to what a single controller dispatching the merged
// action would produce — and each partition scatters its owned allocations
// (batched); (5) acks settle against the shadow ledgers and the slot's
// arrivals enter the central queues. Failure semantics per policy match the
// single controller, including the strict-mode checkpoint that restores the
// central ledgers when an allocate failure aborts an already-popped slot.
func (pl *Plane) RunSlotContext(ctx context.Context, t int, arrivals []int) (*model.Action, *model.State, []transport.AllocateAck, error) {
	c := pl.cluster
	if len(arrivals) != c.J() {
		return nil, nil, nil, fmt.Errorf("got %d arrival counts, want %d", len(arrivals), c.J())
	}
	for j, a := range arrivals {
		if a < 0 {
			return nil, nil, nil, fmt.Errorf("negative arrivals for job type %d", j)
		}
	}
	degrade := pl.cfg.Policy == controller.Degrade

	// Phase 1: per-partition probe + gather + resolve, concurrently. Every
	// write lands at an owned agent's index, and ownership is disjoint, so
	// the shared arrays and tracker records never race.
	pl.scratch.Reset()
	reports, errs, ok := pl.scratch.Reports, pl.scratch.StateErrs, pl.scratch.OK
	var stateReq any = transport.StateRequest{Slot: t} // boxed once, not per agent
	var wg sync.WaitGroup
	for _, p := range pl.parts {
		wg.Add(1)
		go func(p *partition) {
			defer wg.Done()
			if degrade {
				pl.tracker.ProbeDead(ctx, t, p.owned)
			}
			live := make([]int, 0, len(p.owned))
			for _, i := range p.owned {
				if pl.tracker.State(i) == controller.Dead {
					errs[i] = errAgentDead
					continue
				}
				live = append(live, i)
			}
			pl.callMany(ctx, live, transport.KindState,
				func(i int) any { return stateReq },
				func(i int) any { return &reports[i] },
				errs)
			for _, i := range live {
				if errs[i] == nil {
					errs[i] = reports[i].Validate(i, t, c.K(i), c.J())
				}
			}
			if !degrade {
				return // strict resolution happens globally after the barrier
			}
			for _, i := range p.owned {
				if errs[i] != nil {
					pl.tracker.RecordFailure(i)
					continue
				}
				ok[i] = pl.tracker.ResolveReport(ctx, i, t, &reports[i])
			}
		}(p)
	}
	wg.Wait()
	if !degrade {
		if err := joinAgentErrors("state", errs); err != nil {
			return nil, nil, nil, err
		}
		for i := range reports {
			pl.tracker.TrueUpShadow(i, t, &reports[i])
			ok[i] = true
		}
	}

	// Phase 2: assemble the global state exactly like the single controller.
	st := model.NewState(c)
	pre := queue.Lengths{Central: pl.board.lensUnclaimed(), Local: make([][]float64, c.N())}
	var masked []int
	for i := 0; i < c.N(); i++ {
		if ok[i] {
			copy(st.Avail[i], reports[i].Avail)
			st.Price[i] = reports[i].Price
		} else {
			st.Price[i] = pl.tracker.LastPrice(i)
			masked = append(masked, i)
		}
		pre.Local[i] = pl.tracker.ShadowLens(i)
	}
	if err := st.Validate(c); err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: bad assembled state: %w", t, err)
	}
	if len(masked) > 0 {
		pl.tracker.NoteDegraded()
	}

	// Phase 3: concurrent decide + optimistic commit. Each partition decides
	// full-cluster (the schedulers are whole-problem solvers) but only its
	// owned rows enter the merged action; claims cover only owned-row routes,
	// so conflicts are exactly overlapping central-queue demands.
	pl.board.resetClaims()
	initView := view{lens: pre.Central, versions: nil}
	merged := model.NewAction(c)
	partErrs := make([]error, len(pl.parts))
	for _, p := range pl.parts {
		wg.Add(1)
		go func(p *partition) {
			defer wg.Done()
			start := time.Now()
			var act *model.Action
			for attempt := 0; ; attempt++ {
				v := initView
				if !pl.cfg.Deterministic {
					v = pl.board.snapshot()
				}
				a, err := p.sch.Decide(t, st, queue.Lengths{Central: v.lens, Local: pre.Local})
				if err != nil {
					partErrs[p.id] = fmt.Errorf("partition %d: %s: %w", p.id, p.sch.Name(), err)
					return
				}
				if pl.cfg.Deterministic {
					act = a
					break
				}
				want := make([]float64, c.J())
				for _, i := range p.owned {
					for j, r := range a.Route[i] {
						want[j] += float64(r)
					}
				}
				if attempt >= pl.cfg.MaxRetries {
					pl.board.claim(v, want, false)
					p.forced.Add(1)
					act = a
					break
				}
				if pl.board.claim(v, want, true) {
					act = a
					break
				}
				p.conflicts.Add(1)
				p.retries.Add(1)
				if pl.metrics != nil {
					pl.metrics.conflicts.With(partLabel(p.id)).Inc()
					pl.metrics.retries.With(partLabel(p.id)).Inc()
				}
			}
			p.commits.Add(1)
			if pl.metrics != nil {
				pl.metrics.commits.With(partLabel(p.id)).Inc()
				pl.metrics.latency.With(partLabel(p.id)).Observe(time.Since(start).Seconds())
			}
			for _, i := range p.owned {
				copy(merged.Route[i], act.Route[i])
				copy(merged.Process[i], act.Process[i])
				copy(merged.Busy[i], act.Busy[i])
			}
		}(p)
	}
	wg.Wait()
	if err := errors.Join(partErrs...); err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: %w", t, err)
	}

	// Flow around masked sites, as the single controller does.
	for _, i := range masked {
		for j := range merged.Route[i] {
			merged.Route[i][j] = 0
			merged.Process[i][j] = 0
		}
		for k := range merged.Busy[i] {
			merged.Busy[i][k] = 0
		}
	}
	if err := merged.Validate(c, st); err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: infeasible merged action: %w", t, err)
	}

	// Strict checkpoint: allocate failures below abort after the pops.
	var checkpoint []queue.Ledger
	if !degrade {
		checkpoint = make([]queue.Ledger, c.J())
		for j := range pl.board.ledgers {
			checkpoint[j] = pl.board.ledgers[j].Clone()
		}
	}

	// Phase 4a: realize the merged routing with one central pop pass in
	// (job type, data-center) order — the same consumption order as
	// queue.Set.Apply and the single controller, which is what the invariant
	// checker's flow-routed rule recomputes.
	// routedF is handed to a detail observer, so it is built fresh and only
	// when one is listening.
	routed := pl.scratch.Routed
	var routedF [][]float64
	if pl.detail {
		routedF = make([][]float64, c.N())
		for i := range routedF {
			routedF[i] = make([]float64, c.J())
		}
	}
	for j := 0; j < c.J(); j++ {
		for i := 0; i < c.N(); i++ {
			r := merged.Route[i][j]
			if r <= 0 {
				continue
			}
			popped, _ := pl.board.ledgers[j].Pop(t, float64(r))
			routed[i][j] = int(popped)
			if routedF != nil {
				routedF[i][j] = popped
			}
		}
	}

	// Phase 4b: per-partition batched scatter.
	acks := make([]transport.AllocateAck, c.N())
	errsA := pl.scratch.AllocErrs
	for _, p := range pl.parts {
		wg.Add(1)
		go func(p *partition) {
			defer wg.Done()
			live := make([]int, 0, len(p.owned))
			for _, i := range p.owned {
				if ok[i] {
					live = append(live, i)
				}
			}
			pl.callMany(ctx, live, transport.KindAllocate,
				func(i int) any {
					return transport.Allocate{
						Slot:    t,
						Route:   routed[i],
						Process: merged.Process[i],
						Busy:    merged.Busy[i],
					}
				},
				func(i int) any { return &acks[i] },
				errsA)
		}(p)
	}
	wg.Wait()
	if !degrade {
		if err := joinAgentErrors("allocate", errsA); err != nil {
			copy(pl.board.ledgers, checkpoint)
			return nil, nil, nil, err
		}
	}

	// Phase 5: settle acks against the shadows in agent index order, then
	// admit the slot's arrivals — identical to the single controller.
	processedEv := make([][]float64, c.N())
	for i := 0; i < c.N(); i++ {
		popped, delays := pl.tracker.ApplyShadow(i, t, merged.Process[i], routed[i])
		processedEv[i] = popped
		if !ok[i] {
			acks[i] = transport.AllocateAck{
				Slot:      t,
				Processed: make([]float64, c.J()),
				DelaySum:  make([]float64, c.J()),
			}
			continue
		}
		if errsA[i] != nil {
			pl.tracker.RecordFailure(i)
			acks[i] = pl.tracker.SynthesizeAck(i, t, popped, delays, st, merged)
			continue
		}
		for j := range popped {
			if acks[i].Processed[j] != popped[j] {
				pl.tracker.NoteDivergence(i)
				break
			}
		}
	}

	for j, a := range arrivals {
		pl.board.ledgers[j].Push(t, float64(a))
	}

	pl.emitSlot(t, arrivals, st, merged, pre, routedF, processedEv, acks, masked)
	return merged, st, acks, nil
}

// emitSlot publishes the merged slot event, constructed field by field like
// controller.Controller.emitSlot so deterministic mode is byte-identical.
func (pl *Plane) emitSlot(t int, arrivals []int, st *model.State, act *model.Action,
	pre queue.Lengths, routedF, processedEv [][]float64, acks []transport.AllocateAck, masked []int) {
	if pl.obs == nil {
		return
	}
	c := pl.cluster
	post := queue.Lengths{Central: pl.board.lensUnclaimed(), Local: make([][]float64, c.N())}
	for i := 0; i < c.N(); i++ {
		post.Local[i] = pl.tracker.ShadowLens(i)
	}
	ev := telemetry.SlotEvent{
		Slot:       t,
		Origin:     telemetry.OriginController,
		Scheduler:  pl.parts[0].sch.Name(),
		DataCenter: -1,
		Degraded:   masked,
	}
	ev.EnergyPerDC = make([]float64, c.N())
	alloc := make([]float64, c.M())
	for i, ack := range acks {
		ev.Energy += ack.Energy
		ev.EnergyPerDC[i] = ack.Energy
	}
	for i := range processedEv {
		for j, p := range processedEv[i] {
			ev.Processed += p
			alloc[c.JobTypes[j].Account] += p * c.JobTypes[j].Demand
		}
	}
	ev.Fairness = pl.fair.Score(alloc, st.TotalResource(c))
	for _, a := range arrivals {
		ev.Arrived += float64(a)
	}
	for _, v := range post.Central {
		ev.CentralBacklog += v
	}
	ev.LocalBacklog = make([]float64, c.N())
	for i := range post.Local {
		for _, v := range post.Local[i] {
			ev.LocalBacklog[i] += v
		}
	}
	ev.TotalBacklog = ev.CentralBacklog
	for _, v := range ev.LocalBacklog {
		ev.TotalBacklog += v
	}
	if pl.detail {
		ev.Detail = &telemetry.SlotDetail{
			State:     st.Clone(),
			Action:    act.Clone(),
			Pre:       pre.Clone(),
			Post:      post.Clone(),
			Arrivals:  append([]int(nil), arrivals...),
			Routed:    routedF,
			Processed: processedEv,
		}
	}
	pl.obs.ObserveSlot(ev)
}

// Run drives the loop for the given horizon, aggregating the same metrics as
// controller.Controller.Run.
func (pl *Plane) Run(slots int, wl workload.Generator) (*sim.Result, error) {
	return pl.RunContext(context.Background(), slots, wl)
}

// RunContext is Run with cancellation between slots.
func (pl *Plane) RunContext(ctx context.Context, slots int, wl workload.Generator) (*sim.Result, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("horizon %d is not positive", slots)
	}
	if wl == nil {
		return nil, fmt.Errorf("nil workload")
	}
	c := pl.cluster
	energy := metrics.NewRunning(false)
	fairScore := metrics.NewRunning(false)
	localDelay := make([]*metrics.Ratio, c.N())
	workAvg := make([]*metrics.Running, c.N())
	for i := range localDelay {
		localDelay[i] = metrics.NewRatio(false)
		workAvg[i] = metrics.NewRunning(false)
	}

	res := &sim.Result{SchedulerName: pl.parts[0].sch.Name(), Slots: slots}
	for t := 0; t < slots; t++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("slot %d: run canceled: %w", t, err)
			}
		}
		arrivals := wl.Arrivals(t)
		_, st, acks, err := pl.RunSlotContext(ctx, t, arrivals)
		if err != nil {
			return nil, err
		}
		var e float64
		alloc := make([]float64, c.M())
		for i, ack := range acks {
			e += ack.Energy
			var dSum, dCount float64
			for j := 0; j < c.J(); j++ {
				dSum += ack.DelaySum[j]
				dCount += ack.Processed[j]
				alloc[c.JobTypes[j].Account] += ack.Processed[j] * c.JobTypes[j].Demand
				res.TotalProcessed += ack.Processed[j]
			}
			localDelay[i].Add(dSum, dCount)
			workAvg[i].Add(ack.Work)
		}
		energy.Add(e)
		fairScore.Add(pl.fair.Score(alloc, st.TotalResource(c)))
		for _, a := range arrivals {
			res.TotalArrived += float64(a)
		}
	}
	res.AvgEnergy = energy.Mean()
	res.AvgFairness = fairScore.Mean()
	res.AvgLocalDelay = make([]float64, c.N())
	res.AvgWorkPerDC = make([]float64, c.N())
	for i := 0; i < c.N(); i++ {
		res.AvgLocalDelay[i] = localDelay[i].Value()
		res.AvgWorkPerDC[i] = workAvg[i].Mean()
	}
	var backlog float64
	for _, v := range pl.board.lensUnclaimed() {
		backlog += v
	}
	res.FinalBacklog = backlog // central only; agents hold the rest
	return res, nil
}
