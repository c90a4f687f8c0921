// Package agent implements the per-data-center agent of the distributed
// GreFar deployment. An agent owns one site: it observes its local
// environment (server availability and electricity price), holds the site's
// local job queues q_{i,j}, and executes the allocation decisions the
// central controller sends each slot. The central scheduler never touches
// jobs directly; it only sees the agent's state reports — exactly the
// information structure the paper's model assumes.
package agent

import (
	"fmt"
	"math"
	"net"
	"sync"

	"grefar/internal/availability"
	"grefar/internal/model"
	"grefar/internal/price"
	"grefar/internal/queue"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// Config describes one agent.
type Config struct {
	// Cluster is the shared system description.
	Cluster *model.Cluster
	// DataCenter is this agent's site index i.
	DataCenter int
	// Price is the local electricity price source.
	Price price.Source
	// Availability is the local server availability process. Only this
	// site's row is consulted.
	Availability availability.Process
	// Observer, when non-nil, receives one telemetry.SlotEvent per executed
	// allocation (origin "agent") with this site's backlog, energy, and
	// processed counts. Nil costs nothing.
	Observer telemetry.SlotObserver
}

// Agent is the running site daemon. It is safe for concurrent RPCs, though
// the controller drives it with one request at a time.
type Agent struct {
	cfg Config

	mu      sync.Mutex
	ledgers []queue.Ledger // local FIFO per job type

	// lastSlot/lastAck cache the most recent executed allocation so a
	// duplicated or retransmitted Allocate for the same slot is answered
	// from the cache instead of popping and pushing the ledgers twice.
	// -1 means no allocation has been executed since start or restore.
	// lastAck's slices are the agent's for life: each executed allocation
	// overwrites them in place, and every reply is encoded from them under mu.
	lastSlot int
	lastAck  transport.AllocateAck

	// restoredAt is the slot of the last successful KindRestore, and
	// math.MinInt before any. An Allocate for an earlier slot was sent
	// before that restore — one the controller abandoned in flight and that
	// reached the agent only after the resync — and is refused: executing it
	// would fork the restored queues from the controller's shadow. Each
	// restore overwrites it, because a controller restored from an older
	// checkpoint rewinds its agents to an earlier slot.
	restoredAt int

	// req is the decode destination of every Allocate and rep the state
	// report every State request fills, both reused under mu so a slot's
	// gather and scatter cost the agent no slices. Nothing read out of either
	// outlives the call: a reply leaves the agent as encoded bytes only.
	req transport.Allocate
	rep transport.StateReport
}

// New validates the configuration and builds an agent.
func New(cfg Config) (*Agent, error) { return newAgent(cfg, nil) }

// NewSites builds one agent per configuration, as New would, but validates
// each cluster once rather than once per agent, so N agents of one N-site
// cluster cost O(N) to build, not O(N²). The first configuration New would
// refuse fails the whole call, with New's error and the configuration's
// index.
func NewSites(cfgs []Config) ([]*Agent, error) {
	out := make([]*Agent, len(cfgs))
	var valid *model.Cluster
	for n, cfg := range cfgs {
		a, err := newAgent(cfg, valid)
		if err != nil {
			return nil, fmt.Errorf("agent %d: %w", n, err)
		}
		out[n], valid = a, cfg.Cluster
	}
	return out, nil
}

// newAgent is New for a cluster that, when it is valid, has already passed
// Validate.
func newAgent(cfg Config, valid *model.Cluster) (*Agent, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("nil cluster")
	}
	if cfg.Cluster != valid {
		if err := cfg.Cluster.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.DataCenter < 0 || cfg.DataCenter >= cfg.Cluster.N() {
		return nil, fmt.Errorf("data center %d out of range [0,%d)", cfg.DataCenter, cfg.Cluster.N())
	}
	if cfg.Price == nil || cfg.Availability == nil {
		return nil, fmt.Errorf("price and availability sources are required")
	}
	j := cfg.Cluster.J()
	return &Agent{
		cfg:        cfg,
		ledgers:    make([]queue.Ledger, j),
		lastSlot:   -1,
		lastAck:    transport.AllocateAck{Processed: make([]float64, j), DelaySum: make([]float64, j)},
		restoredAt: math.MinInt,
		rep: transport.StateReport{
			DataCenter: cfg.DataCenter,
			Avail:      make([]float64, 0, cfg.Cluster.K(cfg.DataCenter)),
			QueueLens:  make([]float64, j),
		},
	}, nil
}

// AppendReply is the agent's transport.Handler: it serves one request and
// appends the encoded reply to dst. State reports and allocation acks are
// built in storage the agent keeps and encoded before its lock is released,
// so the steady-state exchange allocates nothing here.
func (a *Agent) AppendReply(dst []byte, kind string, body []byte) ([]byte, error) {
	switch kind {
	case transport.KindPing:
		var p transport.Ping
		if err := transport.Unmarshal(body, &p); err != nil {
			return dst, err
		}
		return transport.Append(dst, &p)
	case transport.KindState:
		var req transport.StateRequest
		if err := transport.Unmarshal(body, &req); err != nil {
			return dst, err
		}
		return a.state(dst, req.Slot)
	case transport.KindAllocate:
		return a.allocate(dst, body)
	case transport.KindRestore:
		var req transport.RestoreRequest
		if err := transport.Unmarshal(body, &req); err != nil {
			return dst, err
		}
		return a.restoreRPC(dst, req)
	default:
		return dst, fmt.Errorf("unknown message kind %q", kind)
	}
}

// Handle serves one request and returns the encoded reply in a fresh slice.
// It exists only because the frozen benchmark (benchmark/fleet_probes.go) and
// the handle-* allocation budgets call it; everything else hands AppendReply
// to the transport.
func (a *Agent) Handle(kind string, body []byte) ([]byte, error) {
	return a.AppendReply(make([]byte, 0, 128), kind, body)
}

// state fills the slot report and appends its encoding.
func (a *Agent) state(dst []byte, slot int) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := &a.rep
	rep.Slot = slot
	rep.Price = a.cfg.Price.At(slot)
	rep.Avail = append(rep.Avail[:0], a.cfg.Availability.At(slot)[a.cfg.DataCenter]...)
	for j := range a.ledgers {
		rep.QueueLens[j] = a.ledgers[j].Len()
	}
	return transport.Append(dst, rep)
}

// allocate decodes and executes a slot decision: it processes queued jobs
// first (capped at queue content, matching the paper's queue dynamics where
// jobs routed in a slot are not processable until the next), then admits the
// routed jobs, and appends the ack: energy, processed counts and delay sums.
// The whole request is decoded and validated before any ledger moves: a
// rejected allocation — malformed, or for a slot before the last restore —
// leaves the queues and the replay cache exactly as they were.
func (a *Agent) allocate(dst, body []byte) ([]byte, error) {
	c := a.cfg.Cluster
	a.mu.Lock()
	defer a.mu.Unlock()
	req, ack := &a.req, &a.lastAck
	if err := transport.Unmarshal(body, req); err != nil {
		return dst, err
	}
	if err := req.Validate(c.K(a.cfg.DataCenter), c.J()); err != nil {
		return dst, err
	}
	if req.Slot < a.restoredAt {
		return dst, fmt.Errorf("allocate for slot %d predates the restore at slot %d", req.Slot, a.restoredAt)
	}

	// Idempotent replay: the controller sends exactly one allocation per
	// slot, so a second Allocate with the executed slot is a retransmission
	// (lost response, duplicating network). Answer from the cache without
	// touching the ledgers or re-emitting telemetry — replaying the pops and
	// pushes would corrupt the queue trajectory.
	if req.Slot == a.lastSlot {
		return transport.Append(dst, ack)
	}

	// Nothing below can fail, so the cached ack is overwritten in place.
	ack.Slot, ack.Work = req.Slot, 0
	for j := 0; j < c.J(); j++ {
		popped, delay := a.ledgers[j].Pop(req.Slot, req.Process[j])
		ack.Processed[j] = popped
		ack.DelaySum[j] = delay
		ack.Work += popped * c.JobTypes[j].Demand
		a.ledgers[j].Push(req.Slot, float64(req.Route[j]))
	}
	ack.Energy = a.cfg.Price.At(req.Slot) * c.DrawAt(a.cfg.DataCenter, req.Busy)
	if a.cfg.Observer != nil {
		ev := telemetry.SlotEvent{
			Slot:       req.Slot,
			Origin:     telemetry.OriginAgent,
			DataCenter: a.cfg.DataCenter,
			Energy:     ack.Energy,
		}
		for j := range a.ledgers {
			ev.TotalBacklog += a.ledgers[j].Len()
			ev.Processed += ack.Processed[j]
		}
		a.cfg.Observer.ObserveSlot(ev)
	}
	a.lastSlot = req.Slot
	return transport.Append(dst, ack)
}

// restoreRPC replaces the local queue state from a controller snapshot and
// echoes the post-restore queue lengths so the controller can verify the
// agent landed exactly where intended. The allocation-replay cache is
// invalidated: after a restore the next Allocate must execute, unless it is
// for a slot before the restore's, which is refused.
func (a *Agent) restoreRPC(dst []byte, req transport.RestoreRequest) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := queue.RestoreLedgers(a.ledgers, req.Snapshot); err != nil {
		return dst, err
	}
	a.lastSlot = -1
	a.restoredAt = req.Slot
	ack := transport.RestoreAck{Slot: req.Slot, QueueLens: make([]float64, len(a.ledgers))}
	for j := range a.ledgers {
		ack.QueueLens[j] = a.ledgers[j].Len()
	}
	return transport.Append(dst, &ack)
}

// QueueLens returns the current local backlog per job type (for tests and
// diagnostics).
func (a *Agent) QueueLens() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]float64, len(a.ledgers))
	for j := range a.ledgers {
		out[j] = a.ledgers[j].Len()
	}
	return out
}

// Snapshot serializes the agent's local queue state (cohorts with arrival
// slots), so a restarted agent process can resume with exact backlogs and
// delay accounting via Restore.
func (a *Agent) Snapshot() ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return queue.SnapshotLedgers(a.ledgers)
}

// Restore replaces the agent's local queue state from a Snapshot taken by an
// agent of the same cluster and site.
func (a *Agent) Restore(snapshot []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := queue.RestoreLedgers(a.ledgers, snapshot); err != nil {
		return err
	}
	a.lastSlot = -1
	return nil
}

// Serve starts a transport server for the agent on the listener. It returns
// the server; call Close on it to stop. The agent is the listener's only
// endpoint, so a frame's target is ignored (callers send 0).
func (a *Agent) Serve(lis net.Listener) *transport.MuxServer {
	srv := transport.NewMuxServer(lis, func(dst []byte, _ int, kind string, body []byte) ([]byte, error) {
		return a.AppendReply(dst, kind, body)
	})
	go func() {
		// Serve exits on Close; an unexpected accept error leaves the
		// controller to notice via failed calls.
		_ = srv.Serve()
	}()
	return srv
}
