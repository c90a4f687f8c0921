package controller

import (
	"fmt"
	"strconv"

	"grefar/internal/queue"
	"grefar/internal/telemetry"
)

// AgentHealth is the controller's classification of one agent's liveness,
// driven by the outcome of every RPC the control loop issues (state gathers,
// allocations, heartbeat probes). Transitions happen at slot boundaries, so
// the health trajectory is a deterministic function of the per-slot call
// outcomes, never of wall-clock timing.
type AgentHealth int

const (
	// Healthy: the agent answered its last interaction; it is in the gather
	// set and receives allocations.
	Healthy AgentHealth = iota
	// Suspect: recent consecutive failures (>= HealthConfig.SuspectAfter).
	// The agent is still polled each slot but its site is masked out of the
	// scheduling decision until it answers again.
	Suspect
	// Dead: failures reached HealthConfig.DeadAfter. The agent leaves the
	// gather set entirely; each slot starts with a single heartbeat probe
	// instead, and a successful probe moves it to Rejoining.
	Dead
	// Rejoining: a probe succeeded and the agent has been re-synced onto the
	// controller's shadow queue state; the next successful state report
	// completes the rejoin and restores Healthy.
	Rejoining
)

// String renders the state for logs and metrics.
func (h AgentHealth) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	case Rejoining:
		return "rejoining"
	}
	return fmt.Sprintf("AgentHealth(%d)", int(h))
}

// FailurePolicy selects how the control loop reacts to agent failures.
type FailurePolicy int

const (
	// Strict aborts the slot on any agent failure — the historical behavior,
	// and the right one for tests and experiments that demand the full
	// cluster every slot.
	Strict FailurePolicy = iota
	// Degrade keeps scheduling around failed agents: their availability is
	// masked to zero, their local queues are frozen at the controller's
	// shadow of the last known state, arrivals keep entering the central
	// queues, and rejoining agents are re-synced. This is the default for
	// grefar-serve -agents.
	Degrade
)

// String renders the policy for flags and logs.
func (p FailurePolicy) String() string {
	if p == Degrade {
		return "degrade"
	}
	return "strict"
}

// ParseFailurePolicy converts a flag value ("strict" or "degrade").
func ParseFailurePolicy(s string) (FailurePolicy, error) {
	switch s {
	case "strict":
		return Strict, nil
	case "degrade":
		return Degrade, nil
	}
	return Strict, fmt.Errorf("unknown failure policy %q (want strict or degrade)", s)
}

// HealthConfig tunes the health state machine. The zero value is Strict with
// the default thresholds.
type HealthConfig struct {
	// Policy selects Strict (abort on failure) or Degrade (mask and carry on).
	Policy FailurePolicy
	// SuspectAfter is the number of consecutive failed interactions before an
	// agent is marked Suspect (default 1: the first failure masks it).
	SuspectAfter int
	// DeadAfter is the number of consecutive failed interactions before an
	// agent is marked Dead and moved from gathering to probing (default 3).
	DeadAfter int
}

// withDefaults fills zero thresholds.
func (hc HealthConfig) withDefaults() HealthConfig {
	if hc.SuspectAfter <= 0 {
		hc.SuspectAfter = 1
	}
	if hc.DeadAfter <= 0 {
		hc.DeadAfter = 3
	}
	if hc.DeadAfter < hc.SuspectAfter {
		hc.DeadAfter = hc.SuspectAfter
	}
	return hc
}

// WithFailurePolicy selects the controller's reaction to agent failures.
func WithFailurePolicy(p FailurePolicy) Option {
	return func(ct *Controller) { ct.health.Policy = p }
}

// WithHealthThresholds sets the consecutive-failure counts that demote an
// agent to Suspect and Dead (non-positive values keep the defaults 1 and 3).
func WithHealthThresholds(suspectAfter, deadAfter int) Option {
	return func(ct *Controller) {
		ct.health.SuspectAfter = suspectAfter
		ct.health.DeadAfter = deadAfter
	}
}

// WithHealthMetrics publishes the controller's fault-tolerance signals to the
// registry: per-agent health gauges and failure counters, degraded-slot
// counters, re-sync counters, and per-agent RPC round-trip histograms.
func WithHealthMetrics(reg *telemetry.Registry) Option {
	return func(ct *Controller) { ct.reg = reg }
}

// newHealthMetrics registers (or re-resolves — registration is idempotent per
// name) the health metric families. Trackers sharing one registry share the
// families.
func newHealthMetrics(reg *telemetry.Registry) *healthMetrics {
	return &healthMetrics{
		state: reg.Gauge("grefar_controller_agent_health",
			"Agent health state (0 healthy, 1 suspect, 2 dead, 3 rejoining).", "dc"),
		failures: reg.Counter("grefar_controller_agent_failures_total",
			"Failed agent interactions (state gathers, allocations, probes).", "dc"),
		resyncs: reg.Counter("grefar_controller_agent_resyncs_total",
			"Queue-state restores pushed to rejoining or diverged agents.", "dc"),
		divergences: reg.Counter("grefar_controller_agent_divergences_total",
			"Slots where an agent's reported queues disagreed with the controller's shadow.", "dc"),
		degraded: reg.Counter("grefar_controller_degraded_slots_total",
			"Slots scheduled with at least one agent masked out.").With(),
		rtt: reg.Histogram("grefar_controller_agent_rtt_seconds",
			"Agent RPC round-trip time.",
			[]float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5}, "dc"),
	}
}

// healthMetrics is the registry surface of the health machinery.
type healthMetrics struct {
	state       *telemetry.GaugeVec
	failures    *telemetry.CounterVec
	resyncs     *telemetry.CounterVec
	divergences *telemetry.CounterVec
	degraded    *telemetry.Counter
	rtt         *telemetry.HistogramVec
}

// agentRecord is the controller's per-agent bookkeeping: the health state
// machine plus the shadow ledgers — an exact controller-side mirror of the
// agent's local queues, advanced by replaying the same pops and pushes the
// controller dispatches. The shadow is what lets the controller freeze a
// failed site's queues at their true values, synthesize the outcome of an
// allocation whose ack was lost, and restore a rejoining agent byte-exactly.
type agentRecord struct {
	state AgentHealth
	// fails counts consecutive failed interactions; any success resets it.
	fails int
	// synced reports whether the shadow ledgers are authoritative: false
	// until the first valid report seeds them or a restore fills them.
	synced bool
	// rewind marks a shadow restored from a checkpoint that has not yet been
	// pushed onto the agent.
	rewind bool
	// lastPrice is the most recent reported electricity price, frozen into
	// the assembled state while the agent is masked.
	lastPrice float64
	// shadow mirrors the agent's local FIFO ledgers per job type.
	shadow []queue.Ledger
	// series are this agent's own metric series (all nil without a registry).
	series agentSeries
}

// agentSeries caches the per-agent series the loop touches every slot, so an
// observation is not a strconv.Itoa and a label-map probe each time — 2N of
// them a slot for the round-trip histogram alone. The health gauge is resolved
// when the tracker is built, which publishes it anyway; the other two on
// their first sample, because resolving a series creates it and /metrics
// lists a failure counter or a round-trip histogram only for an agent that
// has had one. The rare counters (resyncs, divergences) still go by label.
type agentSeries struct {
	state    *telemetry.Gauge
	failures *telemetry.Counter
	rtt      *telemetry.Histogram
}

// dcLabel renders the agent index as a metric label.
func dcLabel(i int) string { return strconv.Itoa(i) }
