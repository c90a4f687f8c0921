// Package chaos injects deterministic, seed-driven transport faults between
// the GreFar controller and its agents. A Plan describes the fault mix —
// per-call drop/kill/delay/duplicate probabilities plus hard partition
// windows over slot ranges — and Wrap turns any agent connection into one
// that executes the plan. Every fault decision is drawn from a per-agent
// PRNG seeded from the plan, so two runs with the same seed, topology, and
// call sequence fail in exactly the same places: chaos runs are replayable,
// golden-traceable experiments, not flaky tests.
//
// The fault model matches what the control loop's failure handling must
// survive: a dropped call looks like a network timeout, a killed connection
// forces the client to redial, a duplicated request exercises the agents'
// idempotent allocation path, a delay stretches the call without failing it,
// and a partition window [From, To) makes an agent unreachable for a slot
// range — the shape of a rack losing uplink and coming back.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"grefar/internal/transport"
)

// Fault names, as reported by Error.Fault.
const (
	// FaultDrop is a call that never reached the agent.
	FaultDrop = "drop"
	// FaultKill is a dropped call that also severed the underlying
	// connection, forcing a redial.
	FaultKill = "kill"
	// FaultPartition is a call refused because the agent is inside a
	// partition window.
	FaultPartition = "partition"
)

// Window makes one agent unreachable for the slot range [From, To): every
// call tagged with a slot in the window fails with FaultPartition, including
// liveness probes.
type Window struct {
	// Agent is the data-center index the window applies to.
	Agent int
	// From (inclusive) and To (exclusive) bound the unreachable slot range.
	From, To int
}

// Contains reports whether the window blackholes the given agent and slot.
func (w Window) Contains(agent, slot int) bool {
	return w.Agent == agent && slot >= w.From && slot < w.To
}

// Plan is a deterministic fault schedule. The zero value injects nothing;
// probabilities are per call, evaluated in a fixed order (partition, drop,
// kill, delay, duplicate) against a per-agent PRNG derived from Seed, so the
// fault sequence is a pure function of (Seed, agent, call order).
type Plan struct {
	// Seed derives every per-agent fault stream.
	Seed int64
	// Drop is the probability a call fails without reaching the agent.
	Drop float64
	// Kill is the probability a call fails and severs the connection (the
	// wrapped connection's DropConn is invoked when it has one).
	Kill float64
	// Delay is the probability a call is stalled before proceeding.
	Delay float64
	// MaxDelay bounds the injected stall (default 10ms when Delay > 0).
	MaxDelay time.Duration
	// Dup is the probability a call is delivered twice, with the first
	// response discarded — the retransmission shape that catches
	// non-idempotent handlers.
	Dup float64
	// Windows are hard partition intervals per agent.
	Windows []Window
}

// Validate checks the plan's probabilities and windows.
func (p *Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"kill", p.Kill}, {"delay", p.Delay}, {"dup", p.Dup}} {
		if pr.v < 0 || pr.v > 1 || pr.v != pr.v {
			return fmt.Errorf("chaos: %s probability %v outside [0,1]", pr.name, pr.v)
		}
	}
	for _, w := range p.Windows {
		if w.Agent < 0 || w.From < 0 || w.To < w.From {
			return fmt.Errorf("chaos: bad partition window %+v", w)
		}
	}
	return nil
}

// Partitioned reports whether the plan blackholes the agent at the slot.
func (p *Plan) Partitioned(agent, slot int) bool {
	for _, w := range p.Windows {
		if w.Contains(agent, slot) {
			return true
		}
	}
	return false
}

// Error is the typed failure a chaos fault produces, identifying what was
// injected and where so tests can assert on the fault stream.
type Error struct {
	Fault string
	Agent int
	Slot  int
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("chaos: %s fault at agent %d slot %d", e.Fault, e.Agent, e.Slot)
}

// Conn is the calling surface chaos wraps — satisfied by transport.MuxConn,
// transport.ReconnectClient, transport.Loopback, and the controller's
// in-process fakes.
type Conn interface {
	Call(kind string, reqBody, respBody any) error
}

// connDropper is implemented by connections that can sever their transport
// and redial it (transport.ReconnectClient, which drops the mux client under
// it); the kill fault uses it.
type connDropper interface {
	DropConn()
}

// contextConn mirrors controller.ContextAgentConn without importing it.
type contextConn interface {
	CallContext(ctx context.Context, kind string, reqBody, respBody any) error
}

// AgentConn wraps one agent's connection with the plan's fault stream. It is
// safe for concurrent use; note that faults are deterministic only when the
// per-agent call order is (the control loop issues each agent's calls
// sequentially, so cross-agent goroutine interleaving cannot perturb the
// streams).
type AgentConn struct {
	inner Conn
	agent int
	plan  *Plan

	mu  sync.Mutex
	rng *rand.Rand
}

// agentSeedStride decorrelates per-agent streams derived from one plan seed.
const agentSeedStride int64 = 0x5851f42d4c957f2d

// Wrap builds the chaos-injected connection for one agent.
func (p *Plan) Wrap(inner Conn, agent int) *AgentConn {
	return &AgentConn{
		inner: inner,
		agent: agent,
		plan:  p,
		rng:   rand.New(rand.NewSource(p.Seed + int64(agent)*agentSeedStride)),
	}
}

// slotOf extracts the control-loop slot a request is tagged with; untagged
// kinds report false and bypass partition windows.
func slotOf(reqBody any) (int, bool) {
	switch r := reqBody.(type) {
	case transport.StateRequest:
		return r.Slot, true
	case *transport.StateRequest:
		return r.Slot, true
	case transport.Allocate:
		return r.Slot, true
	case *transport.Allocate:
		return r.Slot, true
	case transport.Ping:
		return r.Slot, true
	case *transport.Ping:
		return r.Slot, true
	case transport.RestoreRequest:
		return r.Slot, true
	case *transport.RestoreRequest:
		return r.Slot, true
	}
	return 0, false
}

// Call implements Conn, running the fault schedule before (possibly)
// delegating to the wrapped connection.
func (c *AgentConn) Call(kind string, reqBody, respBody any) error {
	return c.CallContext(context.Background(), kind, reqBody, respBody)
}

// CallContext is Call honoring a context; the wrapped connection's context
// path is used when it has one.
func (c *AgentConn) CallContext(ctx context.Context, kind string, reqBody, respBody any) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	slot, tagged := slotOf(reqBody)
	// Partition windows are pure functions of the slot: no PRNG draw, so
	// enabling a window never perturbs the probabilistic fault stream.
	if tagged && c.plan.Partitioned(c.agent, slot) {
		return &Error{Fault: FaultPartition, Agent: c.agent, Slot: slot}
	}
	dup := false
	var stall time.Duration
	c.mu.Lock()
	// Draw only for configured faults, in fixed order, so adding a fault
	// class to a plan does not reshuffle the draws of the others.
	if c.plan.Drop > 0 && c.rng.Float64() < c.plan.Drop {
		c.mu.Unlock()
		return &Error{Fault: FaultDrop, Agent: c.agent, Slot: slot}
	}
	if c.plan.Kill > 0 && c.rng.Float64() < c.plan.Kill {
		c.mu.Unlock()
		if d, ok := c.inner.(connDropper); ok {
			d.DropConn()
		}
		return &Error{Fault: FaultKill, Agent: c.agent, Slot: slot}
	}
	if c.plan.Delay > 0 && c.rng.Float64() < c.plan.Delay {
		max := c.plan.MaxDelay
		if max <= 0 {
			max = 10 * time.Millisecond
		}
		stall = time.Duration(c.rng.Int63n(int64(max) + 1))
	}
	if c.plan.Dup > 0 && c.rng.Float64() < c.plan.Dup {
		dup = true
	}
	c.mu.Unlock()
	if stall > 0 {
		t := time.NewTimer(stall)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C:
		}
	}
	if dup {
		// Deliver the request twice and discard the first response: a
		// retransmission whose original was not actually lost. The second
		// delivery's response is the one the caller sees, so non-idempotent
		// handlers surface as divergence, not as a transport error.
		if err := c.call(ctx, kind, reqBody, nil); err != nil {
			return err
		}
	}
	return c.call(ctx, kind, reqBody, respBody)
}

func (c *AgentConn) call(ctx context.Context, kind string, reqBody, respBody any) error {
	if cc, ok := c.inner.(contextConn); ok {
		return cc.CallContext(ctx, kind, reqBody, respBody)
	}
	return c.inner.Call(kind, reqBody, respBody)
}

// NetConn wraps a raw network connection with seeded byte-level faults: each
// Write may corrupt one byte or abruptly close the connection. It drives the
// transport-level robustness tests — a server facing a NetConn peer sees
// undecodable frames and mid-stream hangups, which must end that session
// only, never the accept loop.
type NetConn struct {
	inner interface {
		Write(p []byte) (int, error)
		Close() error
	}

	mu      sync.Mutex
	rng     *rand.Rand
	corrupt float64
	kill    float64
}

// WrapNetConn builds the byte-level fault injector. corrupt and kill are
// per-Write probabilities.
func WrapNetConn(inner interface {
	Write(p []byte) (int, error)
	Close() error
}, seed int64, corrupt, kill float64) *NetConn {
	return &NetConn{inner: inner, rng: rand.New(rand.NewSource(seed)), corrupt: corrupt, kill: kill}
}

// Write implements io.Writer with the fault schedule applied.
func (c *NetConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.kill > 0 && c.rng.Float64() < c.kill {
		c.mu.Unlock()
		c.inner.Close()
		return 0, fmt.Errorf("chaos: connection killed mid-write")
	}
	if c.corrupt > 0 && len(p) > 0 && c.rng.Float64() < c.corrupt {
		i := c.rng.Intn(len(p))
		mutated := append([]byte(nil), p...)
		mutated[i] ^= 0xff
		c.mu.Unlock()
		return c.inner.Write(mutated)
	}
	c.mu.Unlock()
	return c.inner.Write(p)
}

// Close closes the wrapped connection.
func (c *NetConn) Close() error { return c.inner.Close() }
