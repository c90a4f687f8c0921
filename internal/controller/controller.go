// Package controller implements the central scheduler node of the
// distributed GreFar deployment. Each slot it polls every data-center agent
// for its state report, assembles the global view x(t) and the queue
// backlogs Theta(t), runs any sched.Scheduler (normally GreFar), and pushes
// the per-site allocation decisions back to the agents. The controller owns
// only the central queues Q_j; the local queues q_{i,j} live on the agents,
// and the controller keeps a shadow of each: its replay of what the agent
// was sent.
//
// There is one control loop, and New builds it. Each slot it decides once, by
// one scheduler on the slot-initial backlogs: the paper's Algorithm 1, whose
// fairness term couples every site's allocation. All its agent I/O (probe,
// shadow pushes, gather, scatter) fans out once per phase and wire: the
// agents behind one transport.MuxClient share one batch frame per phase, and
// every other agent gets its own concurrent call.
package controller

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// AgentConn abstracts the RPC connection to one agent, enabling in-process
// fakes in tests.
type AgentConn interface {
	Call(kind string, reqBody, respBody any) error
}

// ContextAgentConn is an AgentConn whose calls honor a context: a mux
// connection (transport.MuxConn) abandons the call in flight, its late reply
// dropped by frame id, and a retrying one (transport.ReconnectClient, a mux
// client under a redial loop) also aborts its backoff, so SIGINT waits out
// neither a slow agent nor the reconnection delays to an unreachable one.
// Connections without context support degrade to plain Call.
type ContextAgentConn interface {
	AgentConn
	CallContext(ctx context.Context, kind string, reqBody, respBody any) error
}

var (
	_ ContextAgentConn = (*transport.MuxConn)(nil)
	_ ContextAgentConn = (*transport.ReconnectClient)(nil)
)

// callAgent routes a call through CallContext when both a context and a
// context-aware connection are available.
func callAgent(ctx context.Context, a AgentConn, kind string, reqBody, respBody any) error {
	if ctx != nil {
		if ca, ok := a.(ContextAgentConn); ok {
			return ca.CallContext(ctx, kind, reqBody, respBody)
		}
	}
	return a.Call(kind, reqBody, respBody)
}

// callerGaveUp reports whether err is the caller's own cancellation: ctx is
// done and err is its error. Such a failure is not the agent's.
func callerGaveUp(ctx context.Context, err error) bool {
	return ctx != nil && ctx.Err() != nil && errors.Is(err, ctx.Err())
}

// Controller drives the distributed control loop.
type Controller struct {
	cluster *model.Cluster
	conns   []AgentConn // index i is data center i
	obs     telemetry.SlotObserver
	detail  bool // obs asked for SlotEvent.Detail

	// acct bills, scores and sums every completed slot, as sim.Engine's
	// account does: the paper's quadratic fairness, linear billing.
	acct *sim.Account

	// qs holds the queues the loop schedules on: its central ledgers are
	// Q_j, and its local row i is agent i's shadow. scratch is the per-slot
	// gather/scatter working set; checkpoint is Strict's copy of qs from
	// before the slot's Apply, rewritten every slot (nil under Degrade, which
	// never aborts a slot).
	qs         *queue.Set
	scratch    *SlotScratch
	checkpoint *queue.Set

	// st, act and acks are the slot's outputs, rewritten every slot: what
	// RunSlot returns is the controller's until its next RunSlot. The acks'
	// rows are cut from ackFlat; masked lists the slot's masked sites (its
	// capacity is N, so it never grows).
	st      *model.State
	act     *model.Action
	acks    []transport.AllocateAck
	ackFlat []float64
	masked  []int

	// sch decides for the whole cluster, once per slot.
	sch sched.Scheduler

	// wires are the mux clients carrying agents, found once at construction
	// (a conn's type never changes afterwards); wireOf maps an agent to its
	// wire, -1 for a per-agent call; live is the phase's call list. All are
	// reused every phase.
	wires  []wire
	wireOf []int
	live   []int
	wg     sync.WaitGroup // the phase's per-agent calls

	// Fault tolerance: the failure policy and thresholds, the registry the
	// metric families publish to (nil disables them), and the health tracker
	// owning the per-agent records.
	health  HealthConfig
	reg     *telemetry.Registry
	tracker *Tracker

	// slot is the next slot to run; rewind marks a restored loop whose agents
	// have not yet been pushed onto their restored shadows.
	slot   int
	rewind bool
}

// wire is one MuxClient: the batch frame a phase builds for the agents that
// client carries. ids and calls are refilled per phase, in step; the batch in
// flight, its send error and send time live from send to await. None of it
// outlives the phase.
type wire struct {
	client *transport.MuxClient
	ids    []int // agent ids, in call order
	calls  []transport.BatchCall
	batch  transport.Batch
	err    error
	sent   time.Time
}

// PartitionStats describes the loop as one partition owning every data
// center.
//
// Deprecated: the loop has no partitions. Conflicts, Retries, Commits and
// Forced are always zero; the type stays only because benchmark/fleet.go
// still reads it.
type PartitionStats struct {
	Partition int
	Owned     int

	Conflicts, Retries, Commits, Forced int64
}

// Option customizes a Controller.
type Option func(*Controller)

// WithObserver attaches a telemetry observer: the controller emits one
// SlotEvent per slot (origin "controller") from its run loop, which its
// account builds as sim.Engine's builds the engine's: the central bill,
// fairness, flows and backlogs.
func WithObserver(obs telemetry.SlotObserver) Option {
	return func(ct *Controller) { ct.obs = obs }
}

// New builds the control loop: one scheduler, one decision per slot.
// agents[i] must be connected to the agent serving data center i.
func New(c *model.Cluster, sch sched.Scheduler, agents []AgentConn, opts ...Option) (*Controller, error) {
	if sch == nil {
		return nil, fmt.Errorf("nil scheduler")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(agents) != c.N() {
		return nil, fmt.Errorf("got %d agents, cluster has %d data centers", len(agents), c.N())
	}
	acct, err := sim.NewAccount(c, nil, nil, false)
	if err != nil {
		return nil, err
	}
	ct := &Controller{
		cluster: c,
		conns:   agents,
		acct:    acct,
		qs:      queue.NewSet(c),
		scratch: NewSlotScratch(c),
		st:      model.NewState(c),
		act:     model.NewAction(c),
		acks:    make([]transport.AllocateAck, c.N()),
		ackFlat: make([]float64, 2*c.N()*c.J()),
		sch:     sch,
		wireOf:  make([]int, c.N()),
		live:    make([]int, 0, c.N()),
		masked:  make([]int, 0, c.N()),
	}
	for _, opt := range opts {
		opt(ct)
	}
	if ct.health.Policy != Degrade {
		ct.checkpoint = queue.NewSet(c)
	}
	ct.detail = telemetry.WantsDetail(ct.obs)
	ct.tracker = NewTracker(c, ct.qs, ct.health, ct.reg)
	for i, conn := range agents {
		ct.wireOf[i] = ct.wireFor(conn)
	}
	return ct, nil
}

// Health returns the per-agent health states (index i is data center i).
func (ct *Controller) Health() []AgentHealth { return ct.tracker.Health() }

// CentralLens returns the central backlog per job type.
func (ct *Controller) CentralLens() []float64 {
	return append([]float64(nil), ct.qs.View().Central...)
}

// Stats describes the loop as one partition.
//
// Deprecated: see PartitionStats.
func (ct *Controller) Stats() []PartitionStats {
	return []PartitionStats{{Owned: ct.cluster.N()}}
}

// Slot returns the slot after the last one the loop ran: the next slot to run,
// and 0 before any.
func (ct *Controller) Slot() int { return ct.slot }

// Lengths returns a fresh snapshot of the backlogs the loop schedules on: the
// central ledgers and every agent's shadow ledgers (zero until the agent's
// first report seeds its shadow).
func (ct *Controller) Lengths() queue.Lengths { return ct.qs.Lengths() }

// Backlog returns the total backlog the loop schedules on, bit-identical to
// Lengths().Sum() without taking a snapshot.
func (ct *Controller) Backlog() float64 { return ct.qs.Backlog() }

// Scheduler returns the policy currently deciding.
func (ct *Controller) Scheduler() sched.Scheduler { return ct.sch }

// SetScheduler swaps the deciding scheduler at a slot boundary, the serving
// mode's hot reload. Queues and agent health are untouched.
func (ct *Controller) SetScheduler(s sched.Scheduler) { ct.sch = s }

// Result aggregates the slots run since the loop was built or restored, as
// sim.Engine.Result does: the loop's account fills it with the same code.
// The Result is the loop's, and stays valid (but stale) across later slots.
func (ct *Controller) Result() *sim.Result {
	return ct.acct.Result(ct.sch.Name(), ct.slot, ct.qs.Backlog())
}

// ExportState captures the loop's durable state, in the engine's form: the
// next slot, the snapshot of its queue set — the central ledgers, and every
// agent's shadow as its site's local queues — and the account's lifetime job
// counters. An engine's state and a controller's therefore restore into each
// other. The snapshot owns its memory.
func (ct *Controller) ExportState() (*sim.EngineState, error) {
	q, err := ct.qs.Snapshot()
	if err != nil {
		return nil, err
	}
	return ct.acct.Export(ct.slot, q), nil
}

// RestoreState rewinds the loop onto an exported state: the central ledgers
// and the shadows take the snapshot, the shadows become authoritative, and
// the account takes the lifetime job counters. No agent is called here. The
// next slot opens by pushing each agent's restored shadow onto it through
// the KindRestore resync, under either failure policy, so agents that ran
// past the checkpoint are rewound onto it. A rejected state leaves the loop
// as it was.
func (ct *Controller) RestoreState(st *sim.EngineState) error {
	if st.Slot < 0 {
		return fmt.Errorf("negative slot counter %d", st.Slot)
	}
	if err := ct.qs.Restore(st.Queues); err != nil {
		return err
	}
	ct.acct.Restore(st)
	ct.tracker.markRewind()
	ct.slot = st.Slot
	ct.rewind = true
	return nil
}

// errAgentDead marks an agent excluded from the gather set because its
// health state is Dead; the slot opens with a probe for it instead.
var errAgentDead = errors.New("agent is dead; probing instead of gathering")

// joinAgentErrors aggregates per-agent failures into one error naming every
// failed agent, so a multi-agent outage is diagnosable from a single message.
func joinAgentErrors(phase string, errs []error) error {
	var joined []error
	for i, err := range errs {
		if err != nil {
			joined = append(joined, fmt.Errorf("agent %d %s: %w", i, phase, err))
		}
	}
	return errors.Join(joined...)
}

// wireFor returns the index of the wire carrying conn, adding it on first
// sight, or -1 when conn is not a MuxConn and its agent is called on its own.
func (ct *Controller) wireFor(conn AgentConn) int {
	mc, ok := conn.(*transport.MuxConn)
	if !ok {
		return -1
	}
	for w := range ct.wires {
		if ct.wires[w].client == mc.Client() {
			return w
		}
	}
	ct.wires = append(ct.wires, wire{client: mc.Client()})
	return len(ct.wires) - 1
}

// callMany issues one kind of RPC to the live agents, writing results and
// errors at the agents' indices. Agents behind the same MuxClient share one
// batched frame — the conn type says so, no option does; everything else
// (chaos-wrapped conns, Loopback, in-process fakes, and reconnecting clients,
// which carry one agent per address and so have nothing to batch) gets a
// concurrent per-agent call. req(i) builds the request; resp(i) returns the
// decode destination.
//
// The per-agent calls start first, each on its own goroutine. Then every
// wire's batch is sent, and only then are the batches awaited, in wire order:
// the wires' round trips overlap one another and the per-agent calls, and a
// fleet of mux conns spawns no goroutine. A batched agent's RTT runs from its
// wire's send until that wire's reply is decoded.
func (ct *Controller) callMany(ctx context.Context, kind string,
	req func(i int) any, resp func(i int) any, errs []error) {
	for _, i := range ct.live {
		if w := ct.wireOf[i]; w >= 0 {
			wr := &ct.wires[w]
			wr.ids = append(wr.ids, i)
			wr.calls = append(wr.calls, transport.BatchCall{
				Target: ct.conns[i].(*transport.MuxConn).Target(),
				Kind:   kind,
				Req:    req(i),
				Resp:   resp(i),
			})
			continue
		}
		ct.wg.Add(1)
		go ct.callOne(ctx, i, kind, req(i), resp(i), errs)
	}
	for w := range ct.wires {
		wr := &ct.wires[w]
		if len(wr.calls) > 0 {
			wr.sent = time.Now()
			wr.batch, wr.err = wr.client.StartBatch(wr.calls)
		}
	}
	for w := range ct.wires {
		wr := &ct.wires[w]
		if len(wr.calls) == 0 {
			continue
		}
		err := wr.err
		if err == nil {
			err = wr.batch.Wait(ctx, wr.calls)
		}
		rtt := time.Since(wr.sent)
		for k, i := range wr.ids {
			ct.tracker.ObserveRTT(i, rtt)
			if err != nil {
				errs[i] = err
				continue
			}
			errs[i] = wr.calls[k].Err
		}
		// The calls point at this slot's requests and replies: drop them.
		clear(wr.calls)
		wr.ids, wr.calls = wr.ids[:0], wr.calls[:0]
		wr.batch, wr.err = transport.Batch{}, nil
	}
	ct.wg.Wait()
}

// callOne is one per-agent call of callMany, run on its own goroutine.
func (ct *Controller) callOne(ctx context.Context, i int, kind string, req, resp any, errs []error) {
	defer ct.wg.Done()
	start := time.Now()
	errs[i] = callAgent(ctx, ct.conns[i], kind, req, resp)
	ct.tracker.ObserveRTT(i, time.Since(start))
}

// pick makes the agents keep selects, in index order, the next phase's call
// list, and returns how many it picked.
func (ct *Controller) pick(keep func(i int) bool) int {
	ct.live = ct.live[:0]
	for i := 0; i < ct.cluster.N(); i++ {
		if keep(i) {
			ct.live = append(ct.live, i)
		}
	}
	return len(ct.live)
}

// pushShadows is the loop's one restore phase, which probe, rewind and
// resolve all use: it pushes the shadow of every agent in ct.live onto it and
// checks that each landed exactly on it, writing the outcomes into errs. Only
// a slot that pushes allocates its requests and replies.
func (ct *Controller) pushShadows(ctx context.Context, t int, errs []error) {
	if len(ct.live) == 0 {
		return
	}
	n := ct.cluster.N()
	reqs, acks := make([]transport.RestoreRequest, n), make([]transport.RestoreAck, n)
	live := ct.live[:0]
	for _, i := range ct.live {
		snap, err := ct.qs.SnapshotRow(i)
		if err != nil {
			errs[i] = fmt.Errorf("snapshot shadow: %w", err)
			continue
		}
		reqs[i] = transport.RestoreRequest{Slot: t, Snapshot: snap}
		live = append(live, i)
	}
	ct.live = live
	ct.callMany(ctx, transport.KindRestore,
		func(i int) any { return &reqs[i] },
		func(i int) any { return &acks[i] },
		errs)
	for _, i := range ct.live {
		if errs[i] == nil {
			errs[i] = ct.tracker.resync(i, acks[i].QueueLens)
		}
	}
}

// open runs the slot's opening phases: one ping phase over the Dead agents,
// then one restore phase pushing the shadows of those that answered and, on
// the first slot after RestoreState, of every agent the restore marked. The
// outcomes wait in scratch.openErrs until the gather passes its ctx check
// (settleOpen), so a slot aborted before then moves no health record, and
// the next slot probes again. Only Degrade ever marks an agent Dead, so under
// Strict the opening is a rewind alone, and a failed one aborts the slot.
func (ct *Controller) open(ctx context.Context, t int) error {
	tk, s := ct.tracker, ct.scratch
	if ct.pick(func(i int) bool { return tk.State(i) == Dead }) > 0 {
		var ping any = &transport.Ping{Nonce: uint64(t), Slot: t}
		pongs := make([]transport.Ping, ct.cluster.N())
		ct.callMany(ctx, transport.KindPing,
			func(int) any { return ping },
			func(i int) any { return &pongs[i] },
			s.openErrs)
	} else if !ct.rewind {
		return nil // a healthy slot calls nothing here
	}
	ct.pick(func(i int) bool { return tk.opensWithPush(i, s.openErrs[i] == nil, ct.rewind) })
	ct.pushShadows(ctx, t, s.openErrs)
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("slot %d: %w", t, err)
	}
	if err := joinAgentErrors("rewind", s.openErrs); err != nil && ct.health.Policy == Strict {
		return fmt.Errorf("slot %d: %w", t, err)
	}
	return nil
}

// settleOpen hands the opening's outcomes to the health machine, once the
// gather has passed its ctx check (so no error here is the caller's): a Dead
// agent whose probe landed is Rejoining, a failed probe or rewind counts.
func (ct *Controller) settleOpen() {
	for i, err := range ct.scratch.openErrs {
		switch {
		case err != nil:
			ct.tracker.RecordFailure(i)
		case ct.tracker.State(i) == Dead:
			ct.tracker.setState(i, Rejoining)
		}
	}
	ct.rewind = false
}

// resolve folds the gathered reports into the health machine under Degrade,
// in two passes around one restore phase: the first admits every agent its
// report alone lets in and picks those whose shadows must be pushed first,
// the second admits those whose push landed. A failed gather or push counts
// against its agent, unless the caller gave up on the push.
func (ct *Controller) resolve(ctx context.Context, t int) {
	tk, s := ct.tracker, ct.scratch
	pushes := ct.pick(func(i int) bool {
		switch {
		case s.StateErrs[i] != nil:
			tk.RecordFailure(i)
		case tk.ResolveReport(i, t, &s.Reports[i]):
			s.OK[i] = true
		default:
			return true
		}
		return false
	})
	if pushes == 0 {
		return
	}
	ct.pushShadows(ctx, t, s.pushErrs)
	for i, err := range s.StateErrs {
		if err != nil || s.OK[i] {
			continue
		}
		if err := s.pushErrs[i]; err != nil {
			if !callerGaveUp(ctx, err) {
				tk.RecordFailure(i)
			}
			continue
		}
		tk.admit(i, s.Reports[i].Price)
		s.OK[i] = true
	}
}

// RunSlot executes one slot of the control loop: gather, decide, allocate,
// then admit the slot's new arrivals into the central queues, and account
// the slot (Result). It returns the decided action and state and the
// settled acks.
//
// What it returns is the controller's, as a sched.Scheduler's action is its
// own: it is valid until the controller's next RunSlot, which rewrites it in
// place, and a caller that keeps any of it longer takes a Clone (or copies
// the acks it keeps).
func (ct *Controller) RunSlot(t int, arrivals []int) (*model.Action, *model.State, []transport.AllocateAck, error) {
	return ct.RunSlotContext(context.Background(), t, arrivals)
}

// RunSlotContext is RunSlot with cancellation threaded into the agent calls:
// connections implementing ContextAgentConn abort their retry loops as soon
// as ctx is done, so an interrupt does not wait out reconnection backoff. Its
// outputs are the controller's until its next RunSlot, as RunSlot's are.
//
// A done ctx is the caller's failure, never an agent's. A ctx done at entry,
// or by the end of the gather, aborts the slot before anything moves, with an
// error wrapping ctx.Err(): the slot counter and every agent's health stay as
// they were. A call that fails with ctx's own error later in the slot does
// not count against its agent.
//
// Under FailurePolicy Strict, any agent failure aborts the slot with every
// per-agent error joined. Under Degrade the slot always completes: failed or
// malformed-reporting agents are masked out of the decision (availability
// zero, price and local queues frozen at the shadow), arrivals still enter
// the central queues, Dead agents are heartbeat-probed and re-synced onto
// the shadow state when they answer, and the emitted slot evidence is
// derived from the shadow ledgers so the invariant checker passes on every
// applied slot — the masked state is a valid cluster instance.
func (ct *Controller) RunSlotContext(ctx context.Context, t int, arrivals []int) (*model.Action, *model.State, []transport.AllocateAck, error) {
	c := ct.cluster
	if len(arrivals) != c.J() {
		return nil, nil, nil, fmt.Errorf("got %d arrival counts, want %d", len(arrivals), c.J())
	}
	for j, a := range arrivals {
		if a < 0 {
			return nil, nil, nil, fmt.Errorf("negative arrivals for job type %d", j)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: %w", t, err)
	}
	degrade := ct.health.Policy == Degrade

	// Open, gather, resolve. Dead agents are probed instead of polled, and a
	// restored loop first rewinds its agents; every other agent's report is
	// validated on receipt (site echo, slot echo, dimensions, finite
	// non-negative values), so a malformed or truncated report surfaces as a
	// typed per-agent error — wrapping transport.ErrMalformedReport — before
	// it can corrupt the assembled state. errs[i] is nil exactly when
	// reports[i] is usable; ok[i] marks the agents in this slot's decision.
	ct.scratch.Reset()
	reports, errs, ok := ct.scratch.Reports, ct.scratch.StateErrs, ct.scratch.OK
	ct.scratch.stateReq = transport.StateRequest{Slot: t}
	var stateReq any = &ct.scratch.stateReq // boxed once, not per agent
	if err := ct.open(ctx, t); err != nil {
		return nil, nil, nil, err
	}
	// Poll every agent the opening leaves alive: all but the Dead agents
	// whose probe failed and those a failed rewind kills.
	ct.pick(func(i int) bool {
		if ct.scratch.openErrs[i] != nil && ct.tracker.failureKills(i) {
			errs[i] = errAgentDead
			return false
		}
		return true
	})
	ct.callMany(ctx, transport.KindState,
		func(int) any { return stateReq },
		func(i int) any { return &reports[i] },
		errs)
	// A gather the caller gave up on failed for it, not for the agents.
	if err := ctx.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: %w", t, err)
	}
	ct.settleOpen()
	for _, i := range ct.live {
		if errs[i] == nil {
			errs[i] = reports[i].Validate(i, t, c.K(i), c.J())
		}
		if errs[i] == nil {
			if err := ct.qs.CheckRow(i, reports[i].QueueLens); err != nil {
				errs[i] = fmt.Errorf("%w: %v", transport.ErrMalformedReport, err)
			}
		}
	}
	if degrade {
		ct.resolve(ctx, t)
	} else {
		if err := joinAgentErrors("state", errs); err != nil {
			return nil, nil, nil, err
		}
		for i := range reports {
			ct.tracker.TrueUpShadow(i, t, &reports[i])
			ok[i] = true
		}
	}

	// Assemble the global state into the loop's own: reported availability
	// and price for participating agents; masked agents contribute zero
	// availability (no routing, no processing there) and their last known
	// price, with local queues frozen at the shadow. Every row is written
	// whole, so nothing of the previous slot's state survives. Participating
	// agents' shadow lengths are bit-identical to their reports, so the
	// scheduler's view is unchanged from the historical report-driven
	// assembly.
	st := ct.st
	masked := ct.masked[:0]
	for i := 0; i < c.N(); i++ {
		if ok[i] {
			copy(st.Avail[i], reports[i].Avail)
			st.Price[i] = reports[i].Price
		} else {
			clear(st.Avail[i])
			st.Price[i] = ct.tracker.LastPrice(i)
			masked = append(masked, i)
		}
	}
	if err := st.Validate(c); err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: bad assembled state: %w", t, err)
	}
	if len(masked) > 0 {
		ct.tracker.NoteDegraded()
	}

	// The scheduler decides on the set's own view of the backlogs, which
	// Apply rewrites; a detail observer gets a copy taken before it does.
	view := ct.qs.View()
	owned, err := ct.sch.Decide(t, st, view)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: %s: %w", t, ct.sch.Name(), err)
	}
	// The scheduler may rewrite its action on the next Decide, and masking
	// edits the slot's: copy it into the loop's own first. An action shaped
	// for another cluster does not fit, and Validate says why.
	act := ct.act
	if !copyRows(act.Route, owned.Route) || !copyRows(act.Process, owned.Process) || !copyRows(act.Busy, owned.Busy) {
		return nil, nil, nil, fmt.Errorf("slot %d: infeasible action: %w", t, owned.Validate(c, st))
	}
	// Flow around masked sites: zero their rows so the realized dispatch,
	// the queue dynamics, and the invariant checker's nominal-route checks
	// all agree that nothing moved there. (Schedulers route on backlog, not
	// only on availability, so a masked site's rows are not automatically
	// zero.)
	for _, i := range masked {
		clear(act.Route[i])
		clear(act.Process[i])
		clear(act.Busy[i])
	}
	if err := act.Validate(c, st); err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: infeasible action: %w", t, err)
	}

	// Under Strict an allocate failure below aborts the slot, but Apply moves
	// the central queues and the shadows first: without a checkpoint the
	// caller's retry of the same slot would pop the same jobs twice and break
	// conservation. Copy the set into the checkpoint now and back on the abort
	// path so a failed slot leaves the queues exactly as it found them; both
	// copies are deep, so the live set never shares the checkpoint's arrays.
	// (Degrade never aborts.)
	if !degrade {
		ct.checkpoint.CopyFrom(ct.qs)
	}
	var pre queue.Lengths
	if ct.detail {
		pre = view.Clone()
	}

	// One Apply moves every queue, as it does in the single-process
	// simulator: it dispatches from the central ledgers, capped at their
	// content, and replays each agent's allocation on its shadow in the
	// agent's own order (process, then admit the routed jobs). Its flows are
	// the realized routing the agents are sent — what the invariant checker's
	// flow-routed rule recomputes from the action — and the processed amounts
	// and delay sums their acks are settled against.
	fs, err := ct.qs.Apply(t, act)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: applying action: %w", t, err)
	}
	routed := ct.scratch.Routed
	for i, row := range routed {
		clear(row)
		for _, f := range fs.At(i) {
			row[f.Type] = int(f.Routed)
		}
	}

	// The acks are the loop's too, rewritten whole: each starts as the zero
	// ack of slot t — what a masked agent's stays — with its rows cut afresh
	// from one zeroed array, which a decode fills in place.
	acks, ackFlat, nj := ct.acks, ct.ackFlat, c.J()
	clear(ackFlat)
	for i := range acks {
		acks[i] = transport.AllocateAck{
			Slot:      t,
			Processed: ackFlat[2*i*nj : (2*i+1)*nj : (2*i+1)*nj],
			DelaySum:  ackFlat[(2*i+1)*nj : (2*i+2)*nj : (2*i+2)*nj],
		}
	}
	errsA, allocs := ct.scratch.AllocErrs, ct.scratch.Allocs
	ct.pick(func(i int) bool { return ok[i] })
	ct.callMany(ctx, transport.KindAllocate,
		func(i int) any {
			allocs[i] = transport.Allocate{
				Slot:    t,
				Route:   routed[i],
				Process: act.Process[i],
				Busy:    act.Busy[i],
			}
			return &allocs[i] // a pointer into scratch boxes without allocating
		},
		func(i int) any { return &acks[i] },
		errsA)
	if !degrade {
		if err := joinAgentErrors("allocate", errsA); err != nil {
			ct.qs.CopyFrom(ct.checkpoint)
			return nil, nil, nil, err
		}
	}

	// Settle each agent's ack against the shadow replay: verified for
	// responders, synthesized from the replay when the response was lost (the
	// dispatch is authoritative — a rejoining agent is restored onto this
	// trajectory), the zero ack for masked agents whose rows were zeroed. An
	// allocate the caller gave up on may or may not have run, so its agent is
	// held to the shadow without counting the failure against it.
	for i := 0; i < c.N(); i++ {
		if !ok[i] {
			continue
		}
		cells := fs.At(i)
		if errsA[i] != nil {
			if callerGaveUp(ctx, errsA[i]) {
				ct.tracker.holdShadow(i)
			} else {
				ct.tracker.RecordFailure(i)
			}
			// The replay's rows are the set's cells, rewritten by its next
			// Apply; the ack's rows are the loop's, kept until the next slot.
			popped := ackFlat[2*i*nj : (2*i+1)*nj : (2*i+1)*nj]
			delays := ackFlat[(2*i+1)*nj : (2*i+2)*nj : (2*i+2)*nj]
			clear(popped)
			clear(delays)
			for _, f := range cells {
				popped[f.Type], delays[f.Type] = f.Processed, f.DelaySum
			}
			acks[i] = ct.tracker.SynthesizeAck(i, t, popped, delays, st, act)
			continue
		}
		// The agent bills its row with the central formula and executes
		// the shadow replay; anything else means its trajectory forked
		// mid-slot (e.g. it restarted behind a reconnecting transport and
		// answered empty). De-sync the shadow so the next report re-seeds it.
		if acks[i].Energy != act.EnergyAt(c, st, i) || !replayed(acks[i].Processed, cells, nj) {
			ct.tracker.NoteDivergence(i)
		}
	}

	// The counts were checked at entry, so Arrive cannot refuse them.
	_ = ct.qs.Arrive(t, arrivals)

	ct.acct.Add(sim.Slot{T: t, State: st, Action: act, Flows: fs, Pre: pre, Post: ct.qs.View(),
		Arrivals: arrivals, Admitted: arrivals})
	if ct.obs != nil {
		ev := ct.acct.Event(telemetry.OriginController, ct.sch.Name(), ct.detail)
		if len(masked) > 0 {
			ev.Degraded = append([]int(nil), masked...) // the event is the observer's
		}
		ct.obs.ObserveSlot(ev)
	}
	ct.slot = t + 1
	return act, st, acks, nil
}

// replayed reports whether an ack's processed row is the shadow replay's:
// each cell's Processed at its job type and zero at every other of the nJ.
func replayed(row []float64, cells []queue.Flow, nJ int) bool {
	if len(row) != nJ {
		return false
	}
	for j, v := range row {
		want := 0.0
		if len(cells) > 0 && cells[0].Type == j {
			want, cells = cells[0].Processed, cells[1:]
		}
		if v != want {
			return false
		}
	}
	return true
}

// copyRows copies src into dst row by row and reports whether the two had
// the same shape; on false, dst is partly written.
func copyRows[T any](dst, src [][]T) bool {
	if len(src) != len(dst) {
		return false
	}
	for i := range dst {
		if len(src[i]) != len(dst[i]) {
			return false
		}
		copy(dst[i], src[i])
	}
	return true
}
