package controller

import (
	"context"
	"fmt"
	"sync"
	"time"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// Tracker is the per-agent health machine the control loop drives: the
// Healthy/Suspect/Dead/Rejoining state machine, the shadow ledgers mirroring
// each agent's local queues, probe/resync/rejoin, and the divergence
// bookkeeping.
//
// Every method taking an agent index touches only that agent's record (plus
// concurrency-safe metric families), so the loop's concurrent per-agent calls
// never race; such methods are not safe for concurrent use on the SAME index.
type Tracker struct {
	cluster *model.Cluster
	conns   []AgentConn
	cfg     HealthConfig
	recs    []agentRecord
	metrics *healthMetrics
}

// NewTracker builds a health tracker over the given agent connections.
// conns[i] must serve data center i. A nil registry disables metrics.
func NewTracker(c *model.Cluster, conns []AgentConn, cfg HealthConfig, reg *telemetry.Registry) *Tracker {
	tk := &Tracker{
		cluster: c,
		conns:   conns,
		cfg:     cfg.withDefaults(),
		recs:    make([]agentRecord, len(conns)),
	}
	for i := range tk.recs {
		tk.recs[i].shadow = make([]queue.Ledger, c.J())
	}
	if reg != nil {
		tk.metrics = newHealthMetrics(reg)
		// Publish the healthy baseline so every per-agent series exists
		// before the first fault, not lazily on the first transition.
		for i := range tk.recs {
			tk.recs[i].series.state = tk.metrics.state.With(dcLabel(i))
			tk.recs[i].series.state.Set(float64(Healthy))
		}
	}
	return tk
}

// Health returns the per-agent health states (index i is data center i).
func (tk *Tracker) Health() []AgentHealth {
	out := make([]AgentHealth, len(tk.recs))
	for i := range tk.recs {
		out[i] = tk.recs[i].state
	}
	return out
}

// State returns agent i's health state.
func (tk *Tracker) State(i int) AgentHealth { return tk.recs[i].state }

// LastPrice returns agent i's most recent reported electricity price.
func (tk *Tracker) LastPrice(i int) float64 { return tk.recs[i].lastPrice }

// setState moves an agent's state machine and publishes the gauge.
func (tk *Tracker) setState(i int, s AgentHealth) {
	tk.recs[i].state = s
	if tk.metrics != nil {
		tk.recs[i].series.state.Set(float64(s))
	}
}

// RecordFailure notes one failed interaction with agent i and advances the
// state machine: SuspectAfter consecutive failures mask the agent,
// DeadAfter move it from gathering to probing.
func (tk *Tracker) RecordFailure(i int) {
	rec := &tk.recs[i]
	rec.fails++
	if tk.metrics != nil {
		if rec.series.failures == nil {
			rec.series.failures = tk.metrics.failures.With(dcLabel(i))
		}
		rec.series.failures.Inc()
	}
	switch {
	case rec.fails >= tk.cfg.DeadAfter:
		tk.setState(i, Dead)
	case rec.fails >= tk.cfg.SuspectAfter:
		tk.setState(i, Suspect)
	}
}

// RecordSuccess notes a fully-resolved interaction: the failure streak ends
// and the agent is Healthy again.
func (tk *Tracker) RecordSuccess(i int) {
	tk.recs[i].fails = 0
	if tk.recs[i].state != Healthy {
		tk.setState(i, Healthy)
	}
}

// NoteDivergence records that agent i's physical trajectory forked from the
// shadow (a mismatched report or ack): the divergence counter ticks and the
// shadow is de-synced so the next valid report re-seeds it.
func (tk *Tracker) NoteDivergence(i int) {
	if tk.metrics != nil {
		tk.metrics.divergences.With(dcLabel(i)).Inc()
	}
	tk.recs[i].synced = false
}

// NoteDegraded counts one slot scheduled with at least one agent masked out.
func (tk *Tracker) NoteDegraded() {
	if tk.metrics != nil {
		tk.metrics.degraded.Inc()
	}
}

// ShadowLens writes the shadow backlog per job type for agent i (zeros before
// the shadow is seeded) into dst, which must hold J entries, and returns it.
// The caller supplies the row so a whole slot's lengths can share one array.
func (tk *Tracker) ShadowLens(i int, dst []float64) []float64 {
	for j := range tk.recs[i].shadow {
		dst[j] = tk.recs[i].shadow[j].Len()
	}
	return dst
}

// seedShadow replaces agent i's shadow with fresh ledgers holding the given
// backlogs as single cohorts arriving at the current slot. Amounts are exact
// from here on; waiting times of the pre-existing backlog are approximated as
// zero, which only affects synthesized delay sums, never job counts.
func (tk *Tracker) seedShadow(i, slot int, lens []float64) {
	rec := &tk.recs[i]
	rec.shadow = make([]queue.Ledger, tk.cluster.J())
	for j, v := range lens {
		rec.shadow[j].Push(slot, v)
	}
	rec.synced = true
}

// ApplyShadow replays one slot's allocation on agent i's shadow ledgers in
// exactly the agent's execution order (pop then push, per job type) and
// writes the realized processed amounts and delay sums into popped and
// delays, J entries each. Because the shadow held the same cohorts, the
// popped amounts are bit-identical to what the agent itself reports.
func (tk *Tracker) ApplyShadow(i, t int, process []float64, routed []int, popped, delays []float64) {
	rec := &tk.recs[i]
	for j := range rec.shadow {
		popped[j], delays[j] = rec.shadow[j].Pop(t, process[j])
		rec.shadow[j].Push(t, float64(routed[j]))
	}
}

// lensEqualShadow reports whether the agent-reported queue lengths coincide
// exactly with the shadow. Exact comparison is correct: the shadow replays
// the identical float operations the agent performs, so any difference means
// the trajectories genuinely forked (restart, missed allocation, meddling).
func (tk *Tracker) lensEqualShadow(i int, lens []float64) bool {
	if len(lens) != tk.cluster.J() {
		return false
	}
	for j := range tk.recs[i].shadow {
		if tk.recs[i].shadow[j].Len() != lens[j] {
			return false
		}
	}
	return true
}

// resync pushes the controller's shadow queue state onto agent i and
// verifies the agent landed exactly on it, which completes a pending rewind.
// With an unseeded shadow there is nothing authoritative to push; the next
// state report seeds it instead.
func (tk *Tracker) resync(ctx context.Context, i, t int) error {
	rec := &tk.recs[i]
	if !rec.synced {
		return nil
	}
	snap, err := queue.SnapshotLedgers(rec.shadow)
	if err != nil {
		return fmt.Errorf("snapshot shadow: %w", err)
	}
	var ack transport.RestoreAck
	if err := tk.Call(ctx, i, transport.KindRestore, transport.RestoreRequest{Slot: t, Snapshot: snap}, &ack); err != nil {
		return err
	}
	if !tk.lensEqualShadow(i, ack.QueueLens) {
		return fmt.Errorf("restore verification failed: agent echoed %v, shadow holds %v", ack.QueueLens, tk.ShadowLens(i, make([]float64, tk.cluster.J())))
	}
	if tk.metrics != nil {
		tk.metrics.resyncs.With(dcLabel(i)).Inc()
	}
	rec.rewind = false
	return nil
}

// shadows returns every agent's shadow ledgers, site by site: the local half
// of the loop's durable state.
func (tk *Tracker) shadows() [][]queue.Ledger {
	out := make([][]queue.Ledger, len(tk.recs))
	for i := range tk.recs {
		out[i] = tk.recs[i].shadow
	}
	return out
}

// markRewind makes every restored shadow authoritative and marks its agent
// for a rewind onto it.
func (tk *Tracker) markRewind() {
	for i := range tk.recs {
		tk.recs[i].synced = true
		tk.recs[i].rewind = true
	}
}

// Rewind pushes every shadow marked by a restore onto its agent, concurrently,
// writing each agent's outcome into errs. Dead agents are skipped: ProbeDead's
// resync rewinds them when they answer.
func (tk *Tracker) Rewind(ctx context.Context, t int, errs []error) {
	var wg sync.WaitGroup
	for i := range tk.recs {
		if !tk.recs[i].rewind || tk.recs[i].state == Dead {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = tk.resync(ctx, i, t)
		}(i)
	}
	wg.Wait()
}

// ProbeDead opens the slot by heartbeating every Dead agent once. A probe
// answer re-syncs the agent onto the shadow state and moves it to Rejoining,
// so the following gather can complete the rejoin; a failed probe (or a
// failed re-sync) keeps it Dead.
//
// Probes run concurrently, like the gather: a mass outage must cost one probe
// timeout per slot, not one per dead agent — at fleet scale a sequential
// probe loop would stall the slot for minutes. The RPCs (ping, then restore)
// touch only agent i's record, which nothing else reads during the probe
// phase; state transitions are applied serially in index order afterwards so
// the health machine stays single-threaded.
func (tk *Tracker) ProbeDead(ctx context.Context, t int) {
	if !tk.anyDead() {
		return // nothing to probe: a healthy slot allocates nothing here
	}
	probed := make([]bool, len(tk.recs))
	joined := make([]bool, len(tk.recs))
	var wg sync.WaitGroup
	for i := range tk.recs {
		if tk.recs[i].state != Dead {
			continue
		}
		probed[i] = true
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var pong transport.Ping
			if err := tk.Call(ctx, i, transport.KindPing, transport.Ping{Nonce: uint64(t), Slot: t}, &pong); err != nil {
				return
			}
			joined[i] = tk.resync(ctx, i, t) == nil
		}(i)
	}
	wg.Wait()
	for i := range tk.recs {
		switch {
		case !probed[i]:
		case joined[i]:
			tk.setState(i, Rejoining)
		default:
			tk.RecordFailure(i)
		}
	}
}

// anyDead reports whether some agent is in state Dead.
func (tk *Tracker) anyDead() bool {
	for i := range tk.recs {
		if tk.recs[i].state == Dead {
			return true
		}
	}
	return false
}

// ResolveReport folds one valid state report into the health machine under
// the Degrade policy and reports whether the agent participates in this
// slot's scheduling decision.
//
// The trust rules: a Healthy agent owns its physical queues, so a shadow
// mismatch (an externally restored or replaced agent) re-seeds the shadow
// from the report; a Suspect or Rejoining agent diverged while the
// controller was scheduling around it, so the shadow — the trajectory every
// emitted slot already accounted for — is authoritative and is restored onto
// the agent before it rejoins. So is a restored shadow whose rewind has not
// landed yet, whatever the agent's health: it is restored onto the agent
// even when the lengths agree, because the cohorts behind them may not.
func (tk *Tracker) ResolveReport(ctx context.Context, i, t int, rep *transport.StateReport) bool {
	rec := &tk.recs[i]
	if !rec.synced {
		tk.seedShadow(i, t, rep.QueueLens)
		rec.lastPrice = rep.Price
		tk.RecordSuccess(i)
		return true
	}
	equal := tk.lensEqualShadow(i, rep.QueueLens)
	if rec.state == Healthy && !rec.rewind {
		if !equal {
			if tk.metrics != nil {
				tk.metrics.divergences.With(dcLabel(i)).Inc()
			}
			tk.seedShadow(i, t, rep.QueueLens)
		}
		rec.lastPrice = rep.Price
		tk.RecordSuccess(i)
		return true
	}
	// Suspect, Rejoining or rewinding: let it in only on the shadow trajectory.
	if !equal || rec.rewind {
		if err := tk.resync(ctx, i, t); err != nil {
			tk.RecordFailure(i)
			return false
		}
	}
	rec.lastPrice = rep.Price
	tk.RecordSuccess(i)
	return true
}

// TrueUpShadow keeps the shadow exact under the Strict policy, where the
// health machine is inert: seed on first contact, re-seed if the agent's
// trajectory forked (an agent restarted behind a reconnecting transport).
func (tk *Tracker) TrueUpShadow(i, t int, rep *transport.StateReport) {
	rec := &tk.recs[i]
	if !rec.synced || !tk.lensEqualShadow(i, rep.QueueLens) {
		tk.seedShadow(i, t, rep.QueueLens)
	}
	rec.lastPrice = rep.Price
}

// SynthesizeAck reconstructs what a non-responding agent did (or will be
// restored to have done) from the shadow replay: processed counts and delay
// sums come from the shadow pops, energy from the reported price and the
// dispatched busy-server decision, work from the processed demand. For an
// agent that executed the allocation but lost the response, this is
// bit-identical to the ack it would have sent.
func (tk *Tracker) SynthesizeAck(i, t int, popped, delays []float64, st *model.State, act *model.Action) transport.AllocateAck {
	c := tk.cluster
	ack := transport.AllocateAck{Slot: t, Processed: popped, DelaySum: delays}
	for j := range popped {
		ack.Work += popped[j] * c.JobTypes[j].Demand
	}
	for k, b := range act.Busy[i] {
		ack.Energy += st.Price[i] * b * c.DataCenters[i].Servers[k].Power
	}
	return ack
}

// Call issues one RPC to agent i with the round-trip recorded in the RTT
// histogram when health metrics are wired.
func (tk *Tracker) Call(ctx context.Context, i int, kind string, reqBody, respBody any) error {
	if tk.metrics == nil {
		return callAgent(ctx, tk.conns[i], kind, reqBody, respBody)
	}
	start := time.Now()
	err := callAgent(ctx, tk.conns[i], kind, reqBody, respBody)
	tk.ObserveRTT(i, time.Since(start))
	return err
}

// ObserveRTT records one round-trip duration for agent i — the hook for
// callers that batch many agents' calls onto one wire and apportion the
// batch round-trip themselves.
func (tk *Tracker) ObserveRTT(i int, d time.Duration) {
	if tk.metrics == nil {
		return
	}
	series := &tk.recs[i].series
	if series.rtt == nil {
		series.rtt = tk.metrics.rtt.With(dcLabel(i))
	}
	series.rtt.Observe(d.Seconds())
}
