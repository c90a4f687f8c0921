package controller

import (
	"fmt"
	"time"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// Tracker is the per-agent health machine the control loop drives: the
// Healthy/Suspect/Dead/Rejoining state machine, the trust in the shadow of
// each agent's local queues (local row i of the loop's queue set), and the
// divergence bookkeeping. It calls no agent: the loop hands it the outcomes.
// Only ObserveRTT runs on the loop's per-agent call goroutines, touching only
// agent i's series; every other method runs on the loop's goroutine.
type Tracker struct {
	cluster *model.Cluster
	qs      *queue.Set // local row i is agent i's shadow
	cfg     HealthConfig
	recs    []agentRecord
	metrics *healthMetrics
}

// NewTracker builds a health tracker with one record per data center of c,
// whose shadows are the local rows of qs. A nil registry disables metrics.
func NewTracker(c *model.Cluster, qs *queue.Set, cfg HealthConfig, reg *telemetry.Registry) *Tracker {
	tk := &Tracker{
		cluster: c,
		qs:      qs,
		cfg:     cfg.withDefaults(),
		recs:    make([]agentRecord, c.N()),
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

// failureKills reports whether one more failure leaves agent i Dead.
func (tk *Tracker) failureKills(i int) bool {
	rec := &tk.recs[i]
	return rec.state == Dead || rec.fails+1 >= tk.cfg.DeadAfter
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

// seedShadow replaces agent i's shadow with the given backlogs as single
// cohorts arriving at the current slot. Amounts are exact from here on;
// waiting times of the pre-existing backlog are approximated as zero, which
// only affects synthesized delay sums, never job counts. A report's lengths
// pass queue.Set.CheckRow on receipt, so the seed is never refused.
func (tk *Tracker) seedShadow(i, slot int, lens []float64) {
	_ = tk.qs.SeedRow(i, slot, lens)
	tk.recs[i].synced = true
}

// lensEqualShadow reports whether the agent-reported queue lengths coincide
// exactly with the shadow. Exact comparison is correct: the shadow replays
// the identical float operations the agent performs, so any difference means
// the trajectories genuinely forked (restart, missed allocation, meddling).
func (tk *Tracker) lensEqualShadow(i int, lens []float64) bool {
	shadow := tk.qs.View().Local[i]
	if len(lens) != len(shadow) {
		return false
	}
	for j, v := range shadow {
		if v != lens[j] {
			return false
		}
	}
	return true
}

// resync completes a push of agent i's shadow onto it: the lengths the agent
// echoed must be the shadow's, and then a pending rewind is done.
func (tk *Tracker) resync(i int, echo []float64) error {
	if !tk.lensEqualShadow(i, echo) {
		return fmt.Errorf("restore verification failed: agent echoed %v, shadow holds %v", echo, tk.qs.View().Local[i])
	}
	if tk.metrics != nil {
		tk.metrics.resyncs.With(dcLabel(i)).Inc()
	}
	tk.recs[i].rewind = false
	return nil
}

// holdShadow makes agent i's shadow authoritative until a resync lands, as a
// restore does: its next report is checked against the shadow and never
// re-seeds it. An allocate the caller gave up on may or may not have run on
// the agent, and the shadow already holds it.
func (tk *Tracker) holdShadow(i int) { tk.recs[i].rewind = true }

// markRewind makes every restored shadow authoritative and marks its agent
// for a rewind onto it.
func (tk *Tracker) markRewind() {
	for i := range tk.recs {
		tk.recs[i].synced = true
		tk.recs[i].rewind = true
	}
}

// opensWithPush reports whether the slot's opening pushes agent i's shadow
// onto it: a Dead agent's once its probe is answered, if the shadow was ever
// seeded (else its next report seeds it); any other's when the slot rewinds.
func (tk *Tracker) opensWithPush(i int, answered, rewind bool) bool {
	rec := &tk.recs[i]
	if rec.state == Dead {
		return answered && rec.synced
	}
	return rewind && rec.rewind
}

// ResolveReport folds one valid state report into the health machine under
// the Degrade policy and reports whether the agent participates in this
// slot's decision; false means its shadow must be pushed onto it first.
//
// The trust rules: a Healthy agent owns its physical queues, so a shadow
// mismatch (an externally restored or replaced agent) re-seeds the shadow
// from the report; a Suspect or Rejoining agent diverged while the
// controller was scheduling around it, so the shadow — the trajectory every
// emitted slot already accounted for — is authoritative and is restored onto
// the agent before it rejoins. So is a shadow marked for a rewind — restored
// from a checkpoint, or holding an allocate the caller gave up on — until
// the rewind lands, whatever the agent's health: it is restored onto the
// agent even when the lengths agree, because the cohorts behind them may not.
func (tk *Tracker) ResolveReport(i, t int, rep *transport.StateReport) bool {
	rec := &tk.recs[i]
	switch {
	case !rec.synced:
		tk.seedShadow(i, t, rep.QueueLens)
	case rec.state == Healthy && !rec.rewind:
		if !tk.lensEqualShadow(i, rep.QueueLens) {
			tk.NoteDivergence(i)
			tk.seedShadow(i, t, rep.QueueLens)
		}
	case rec.rewind || !tk.lensEqualShadow(i, rep.QueueLens):
		// Suspect, Rejoining or rewinding: let it in only on the shadow
		// trajectory.
		return false
	}
	tk.admit(i, rep.Price)
	return true
}

// admit lets agent i into the slot's decision at its reported price.
func (tk *Tracker) admit(i int, price float64) {
	tk.recs[i].lastPrice = price
	tk.RecordSuccess(i)
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
// sums are the replay's (the queue set's flows for site i), energy the row's
// central bill (Action.EnergyAt: the reported price times the draw
// model.Cluster.DrawAt, as the agent bills it), work from the processed
// demand. For an agent that executed the allocation but lost the response,
// this is bit-identical to the ack it would have sent.
func (tk *Tracker) SynthesizeAck(i, t int, popped, delays []float64, st *model.State, act *model.Action) transport.AllocateAck {
	c := tk.cluster
	ack := transport.AllocateAck{Slot: t, Processed: popped, DelaySum: delays}
	for j := range popped {
		ack.Work += popped[j] * c.JobTypes[j].Demand
	}
	ack.Energy = act.EnergyAt(c, st, i)
	return ack
}

// ObserveRTT records one round-trip duration for agent i: its own call's, or
// the batch frame's it rode in.
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
