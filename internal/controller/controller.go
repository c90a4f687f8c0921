// Package controller implements the central scheduler node of the
// distributed GreFar deployment. Each slot it polls every data-center agent
// for its state report, assembles the global view x(t) and the queue
// backlogs Theta(t), runs any sched.Scheduler (normally GreFar), and pushes
// the per-site allocation decisions back to the agents. The controller owns
// only the central queues Q_j; the local queues q_{i,j} live on the agents.
//
// There is one control loop, and New builds it. Each slot it decides once, by
// one scheduler on the slot-initial backlogs: the paper's Algorithm 1, whose
// fairness term couples every site's allocation. Its agent I/O (probe,
// gather, scatter) fans out once per wire: the agents behind one
// transport.MuxClient share one batch frame per phase, and every other agent
// gets its own concurrent call.
package controller

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"grefar/internal/fairness"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
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

// Controller drives the distributed control loop.
type Controller struct {
	cluster *model.Cluster
	conns   []AgentConn // index i is data center i
	fair    fairness.Function
	obs     telemetry.SlotObserver
	detail  bool // obs asked for SlotEvent.Detail

	// central holds the central ledgers Q_j; scratch is the per-slot
	// gather/scatter working set.
	central []queue.Ledger
	scratch *SlotScratch

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
	// owning the per-agent records and shadow ledgers.
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
// SlotEvent per slot (origin "controller") from its run loop, carrying the
// realized energy, fairness, flows, and the central backlog it owns.
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
	weights := make([]float64, c.M())
	for m, a := range c.Accounts {
		weights[m] = a.Weight
	}
	fair, err := fairness.NewQuadratic(weights)
	if err != nil {
		return nil, err
	}
	ct := &Controller{
		cluster: c,
		conns:   agents,
		fair:    fair,
		central: make([]queue.Ledger, c.J()),
		scratch: NewSlotScratch(c),
		sch:     sch,
		wireOf:  make([]int, c.N()),
		live:    make([]int, 0, c.N()),
	}
	for _, opt := range opts {
		opt(ct)
	}
	ct.detail = telemetry.WantsDetail(ct.obs)
	ct.tracker = NewTracker(c, agents, ct.health, ct.reg)
	for i, conn := range agents {
		ct.wireOf[i] = ct.wireFor(conn)
	}
	return ct, nil
}

// Health returns the per-agent health states (index i is data center i).
func (ct *Controller) Health() []AgentHealth { return ct.tracker.Health() }

// CentralLens returns the central backlog per job type.
func (ct *Controller) CentralLens() []float64 {
	return ct.centralLens(make([]float64, len(ct.central)))
}

// centralLens writes the central backlog per job type into dst and returns it.
func (ct *Controller) centralLens(dst []float64) []float64 {
	for j := range ct.central {
		dst[j] = ct.central[j].Len()
	}
	return dst
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
func (ct *Controller) Lengths() queue.Lengths {
	c := ct.cluster
	l := queue.Lengths{Central: ct.CentralLens(), Local: newRows(c.N(), c.J())}
	for i := range l.Local {
		ct.tracker.ShadowLens(i, l.Local[i])
	}
	return l
}

// SetScheduler swaps the deciding scheduler at a slot boundary, the serving
// mode's hot reload. Queues and agent health are untouched.
func (ct *Controller) SetScheduler(s sched.Scheduler) { ct.sch = s }

// State is the loop's durable state: the next slot, and the central ledgers
// with every agent's shadow ledgers in queue.Set's snapshot format (a shadow
// is its site's local queues). An engine's queue snapshot and a controller's
// therefore restore into each other.
type State struct {
	Slot   int
	Queues []byte
}

// ExportState captures the loop's durable state. The snapshot owns its memory.
func (ct *Controller) ExportState() (*State, error) {
	q, err := queue.SnapshotSet(ct.central, ct.tracker.shadows())
	if err != nil {
		return nil, err
	}
	return &State{Slot: ct.slot, Queues: q}, nil
}

// RestoreState rewinds the loop onto an exported state: the central ledgers
// and the shadows take the snapshot, and the shadows become authoritative. No
// agent is called here. The next slot opens by pushing each agent's restored
// shadow onto it through the KindRestore resync, under either failure policy,
// so agents that ran past the checkpoint are rewound onto it. A rejected
// state leaves the loop as it was.
func (ct *Controller) RestoreState(st *State) error {
	if st.Slot < 0 {
		return fmt.Errorf("negative slot counter %d", st.Slot)
	}
	if err := queue.RestoreSet(ct.central, ct.tracker.shadows(), st.Queues); err != nil {
		return err
	}
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
	errs[i] = ct.tracker.Call(ctx, i, kind, req, resp)
}

// RunSlot executes one slot of the control loop: gather, decide, allocate,
// then admit the slot's new arrivals into the central queues. It returns the
// acks for metric aggregation along with the decided action and state.
func (ct *Controller) RunSlot(t int, arrivals []int) (*model.Action, *model.State, []transport.AllocateAck, error) {
	return ct.RunSlotContext(context.Background(), t, arrivals)
}

// RunSlotContext is RunSlot with cancellation threaded into the agent calls:
// connections implementing ContextAgentConn abort their retry loops as soon
// as ctx is done, so an interrupt does not wait out reconnection backoff.
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
	degrade := ct.health.Policy == Degrade

	// Probe, gather, resolve. Dead agents are probed instead of polled; every
	// other agent's report is validated on receipt (site echo, slot echo,
	// dimensions, finite non-negative values), so a malformed or truncated
	// report surfaces as a typed per-agent error — wrapping
	// transport.ErrMalformedReport — before it can corrupt the assembled
	// state. errs[i] is nil exactly when reports[i] is usable; ok[i] marks the
	// agents participating in this slot's decision.
	ct.scratch.Reset()
	reports, errs, ok := ct.scratch.Reports, ct.scratch.StateErrs, ct.scratch.OK
	var stateReq any = transport.StateRequest{Slot: t} // boxed once, not per agent
	if degrade {
		ct.tracker.ProbeDead(ctx, t)
	}
	if ct.rewind {
		if err := ct.rewindAgents(ctx, t, degrade); err != nil {
			return nil, nil, nil, err
		}
	}
	ct.live = ct.live[:0]
	for i := 0; i < c.N(); i++ {
		if ct.tracker.State(i) == Dead {
			errs[i] = errAgentDead
			continue
		}
		ct.live = append(ct.live, i)
	}
	ct.callMany(ctx, transport.KindState,
		func(int) any { return stateReq },
		func(i int) any { return &reports[i] },
		errs)
	for _, i := range ct.live {
		if errs[i] == nil {
			errs[i] = reports[i].Validate(i, t, c.K(i), c.J())
		}
	}
	if degrade {
		for i, err := range errs {
			if err != nil {
				ct.tracker.RecordFailure(i)
				continue
			}
			ok[i] = ct.tracker.ResolveReport(ctx, i, t, &reports[i])
		}
	} else {
		if err := joinAgentErrors("state", errs); err != nil {
			return nil, nil, nil, err
		}
		for i := range reports {
			ct.tracker.TrueUpShadow(i, t, &reports[i])
			ok[i] = true
		}
	}

	// Assemble the global state: reported availability and price for
	// participating agents; masked agents contribute zero availability (no
	// routing, no processing there) and their last known price, with local
	// queues frozen at the shadow. Participating agents' shadow lengths are
	// bit-identical to their reports, so the scheduler's view is unchanged
	// from the historical report-driven assembly.
	st := model.NewState(c)
	pre := ct.scratch.Pre
	ct.centralLens(pre.Central)
	var masked []int
	for i := 0; i < c.N(); i++ {
		if ok[i] {
			copy(st.Avail[i], reports[i].Avail)
			st.Price[i] = reports[i].Price
		} else {
			st.Price[i] = ct.tracker.LastPrice(i)
			masked = append(masked, i)
		}
		ct.tracker.ShadowLens(i, pre.Local[i])
	}
	if err := st.Validate(c); err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: bad assembled state: %w", t, err)
	}
	if len(masked) > 0 {
		ct.tracker.NoteDegraded()
	}

	owned, err := ct.sch.Decide(t, st, pre)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("slot %d: %s: %w", t, ct.sch.Name(), err)
	}
	// The scheduler may rewrite its action on the next Decide, and the
	// slot's action is the caller's: copy it before anything edits it.
	act := owned.Clone()
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

	// Under Strict an allocate failure below aborts the slot, but the central
	// pops happen first: without a checkpoint the caller's retry of the same
	// slot would pop the same jobs twice and break conservation. Clone the
	// ledgers now and restore them on the abort path so a failed slot leaves
	// the central queues exactly as it found them. (Degrade never aborts.)
	central := ct.central
	var checkpoint []queue.Ledger
	if !degrade {
		checkpoint = make([]queue.Ledger, c.J())
		for j := range central {
			checkpoint[j] = central[j].Clone()
		}
	}

	// Dispatch jobs from the central queues, capped at queue content, in one
	// pass in (job type, data-center) order exactly like queue.Set.Apply: the
	// distributed run is bit-identical to the single-process simulator, and
	// the realized routing is what the invariant checker's flow-routed rule
	// recomputes from the action.
	// routedF is slot evidence for a detail observer and handed to it, so it
	// is built fresh, and only when one is listening.
	routed := ct.scratch.Routed
	var routedF [][]float64
	if ct.detail {
		routedF = newRows(c.N(), c.J())
	}
	for j := 0; j < c.J(); j++ {
		for i := 0; i < c.N(); i++ {
			r := act.Route[i][j]
			if r <= 0 {
				continue
			}
			popped, _ := central[j].Pop(t, float64(r))
			routed[i][j] = int(popped)
			if routedF != nil {
				routedF[i][j] = popped
			}
		}
	}

	// The acks are the caller's: fresh every slot. Their slices are cut from
	// one array before the decode, which fills a destination in place when it
	// is large enough, so the scatter's replies cost one allocation, not two
	// per agent.
	acks := make([]transport.AllocateAck, c.N())
	ackFlat, j := make([]float64, 2*c.N()*c.J()), c.J()
	for i := range acks {
		acks[i].Processed = ackFlat[2*i*j : (2*i+1)*j : (2*i+1)*j]
		acks[i].DelaySum = ackFlat[(2*i+1)*j : (2*i+2)*j : (2*i+2)*j]
	}
	errsA, allocs := ct.scratch.AllocErrs, ct.scratch.Allocs
	ct.live = ct.live[:0]
	for i, in := range ok {
		if in {
			ct.live = append(ct.live, i)
		}
	}
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
			copy(central, checkpoint)
			return nil, nil, nil, err
		}
	}

	// Advance the shadow ledgers with exactly the dispatched operations, in
	// agent execution order, and settle each agent's ack: verified against
	// the shadow for responders, synthesized from it when the response was
	// lost (the dispatch is authoritative — a rejoining agent is restored
	// onto this trajectory), zero for masked agents whose rows were zeroed.
	// processedEv is slot evidence a detail observer keeps: fresh for one.
	processedEv, delays := ct.scratch.Processed, ct.scratch.Delays
	if ct.detail {
		processedEv = newRows(c.N(), c.J())
	}
	for i := 0; i < c.N(); i++ {
		popped := processedEv[i]
		ct.tracker.ApplyShadow(i, t, act.Process[i], routed[i], popped, delays)
		if !ok[i] {
			acks[i].Slot = t // never sent, never decoded into: the zero ack
			continue
		}
		if errsA[i] != nil {
			ct.tracker.RecordFailure(i)
			ack := ct.tracker.SynthesizeAck(i, t, popped, delays, st, act)
			// The ack is the caller's; popped and delays are slot storage.
			ack.Processed = append(acks[i].Processed[:0], popped...)
			ack.DelaySum = append(acks[i].DelaySum[:0], delays...)
			acks[i] = ack
			continue
		}
		for j := range popped {
			if acks[i].Processed[j] != popped[j] {
				// The agent executed something other than the shadow replay:
				// its trajectory forked mid-slot (e.g. it restarted behind a
				// reconnecting transport and answered empty). De-sync the
				// shadow so the next report re-seeds it.
				ct.tracker.NoteDivergence(i)
				break
			}
		}
	}

	for j, a := range arrivals {
		central[j].Push(t, float64(a))
	}

	ct.emitSlot(t, arrivals, st, act, pre, routedF, processedEv, acks, masked)
	ct.slot = t + 1
	return act, st, acks, nil
}

// rewindAgents opens the first slot after a restore: every agent not Dead is
// pushed onto its restored shadow (ProbeDead's resync rewinds the Dead ones).
// Under Strict a failure aborts the slot before anything moves, and the retry
// rewinds again. Under Degrade a failure counts against the agent, which keeps
// its rewind mark: until a resync lands, its reports are checked against the
// shadow and never re-seed it, whatever its health.
func (ct *Controller) rewindAgents(ctx context.Context, t int, degrade bool) error {
	errs := make([]error, ct.cluster.N())
	ct.tracker.Rewind(ctx, t, errs)
	if !degrade {
		if err := joinAgentErrors("rewind", errs); err != nil {
			return fmt.Errorf("slot %d: %w", t, err)
		}
	}
	for i, err := range errs {
		if err != nil {
			ct.tracker.RecordFailure(i)
		}
	}
	ct.rewind = false
	return nil
}

// emitSlot assembles and publishes the controller's per-slot telemetry
// event, including the full slot evidence when the observer asks for it.
func (ct *Controller) emitSlot(t int, arrivals []int, st *model.State, act *model.Action,
	pre queue.Lengths, routedF, processedEv [][]float64, acks []transport.AllocateAck, masked []int) {
	if ct.obs == nil {
		return
	}
	c := ct.cluster
	post := ct.scratch.Post
	ct.centralLens(post.Central)
	for i := 0; i < c.N(); i++ {
		ct.tracker.ShadowLens(i, post.Local[i])
	}
	ev := telemetry.SlotEvent{
		Slot:       t,
		Origin:     telemetry.OriginController,
		Scheduler:  ct.sch.Name(),
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
	ev.Fairness = ct.fair.Score(alloc, st.TotalResource(c))
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
	if ct.detail {
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
	ct.obs.ObserveSlot(ev)
}
