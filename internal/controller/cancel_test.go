package controller_test

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/hollow"
	"grefar/internal/invariant"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// cancelPlan cancels the caller's context from the victim's call of one
// kind, once every other agent's call of that kind has returned, and fails
// the victim's call, unsent, with the context's error: the caller gave up
// mid-phase, and no call to another agent is left in flight.
type cancelPlan struct {
	kind   string
	victim int
	cancel atomic.Pointer[context.CancelFunc] // set to arm the plan for one phase
	others sync.WaitGroup                     // the other agents' calls of the armed phase
}

// planConn is one agent's connection under a cancelPlan. Its type hides the
// connection it wraps, so the loop calls every agent on its own.
type planConn struct {
	inner controller.ContextAgentConn
	i     int
	plan  *cancelPlan
}

func (c planConn) Call(kind string, reqBody, respBody any) error {
	return c.CallContext(context.Background(), kind, reqBody, respBody)
}

func (c planConn) CallContext(ctx context.Context, kind string, reqBody, respBody any) error {
	p := c.plan
	if kind != p.kind || p.cancel.Load() == nil {
		return c.inner.CallContext(ctx, kind, reqBody, respBody)
	}
	if c.i != p.victim {
		defer p.others.Done()
		return c.inner.CallContext(ctx, kind, reqBody, respBody)
	}
	p.others.Wait()
	(*p.cancel.Swap(nil))()
	return ctx.Err()
}

// newCancelLoop builds the Degrade-policy GreFar loop over an n-agent hollow
// fleet, the invariant checker attached, every agent's connection under plan
// when there is one.
func newCancelLoop(t *testing.T, n, slots int, plan *cancelPlan) (sim.Inputs, *hollow.Fleet, *controller.Controller, *invariant.Checker) {
	t.Helper()
	in, err := hollow.NewScaleInputs(2012, n, slots)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := hollow.NewFleet(in, hollow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	conns := fleet.Conns()
	if plan != nil {
		for i := range conns {
			conns[i] = planConn{inner: conns[i].(controller.ContextAgentConn), i: i, plan: plan}
		}
	}
	ct, ck := newCheckedLoop(t, in, conns)
	return in, fleet, ct, ck
}

// newCheckedLoop builds the Degrade-policy GreFar loop over conns with the
// invariant checker attached.
func newCheckedLoop(t *testing.T, in sim.Inputs, conns []controller.AgentConn) (*controller.Controller, *invariant.Checker) {
	t.Helper()
	g, err := core.New(in.Cluster, core.Config{V: 7.5, Beta: 100})
	if err != nil {
		t.Fatal(err)
	}
	ck := invariant.NewChecker(in.Cluster, invariant.CheckerOptions{})
	ct, err := controller.New(in.Cluster, g, conns,
		controller.WithFailurePolicy(controller.Degrade), controller.WithObserver(telemetry.Multi(ck)))
	if err != nil {
		t.Fatal(err)
	}
	return ct, ck
}

// TestCancelledSlotChargesNoAgent pins that a done context is the caller's
// failure, never the agents'. Under Degrade, a context done at entry or by
// the end of the gather aborts the slot before anything moves: the error
// wraps context.Canceled, the slot counter, the backlogs and every agent's
// health stay as they were — a Dead agent whose probe the slot already
// landed stays Dead, and the next slot probes it again — and repeating it
// changes nothing. A context done in the scatter lets the slot complete, but
// the allocates it cut short count against no agent: every agent stays
// Healthy, and its shadow, which holds the allocate, is pushed onto it at the
// next slot. Either way the run then goes on exactly as an uncancelled run of
// the same slots does, with the invariant checker holding on every applied
// slot.
func TestCancelledSlotChargesNoAgent(t *testing.T) {
	const agents, slots = 8, 10
	for _, tc := range []struct {
		name     string
		kind     string // the call kind the context is cancelled on; "" cancels before the slot
		attempts int    // cancelled attempts of slot at
		aborts   bool
		at       int // the cancelled slot
		down     int // agent 0 is unreachable for the down slots before at, in both runs
	}{
		{"at entry", "", 4, true, 3, 0},
		{"in the gather", transport.KindState, 2, true, 3, 0},
		{"in the scatter", transport.KindAllocate, 1, false, 3, 0},
		// Three failed slots make agent 0 Dead (the default DeadAfter); slot
		// at probes it, pushes its shadow onto it, and is cancelled in the
		// gather that follows.
		{"after a probe", transport.KindState, 2, true, 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, cleanFleet, clean, _ := newCancelLoop(t, agents, slots, nil)
			plan := &cancelPlan{kind: tc.kind, victim: 2}
			_, fleet, ct, ck := newCancelLoop(t, agents, slots, plan)
			at := tc.at
			for tt := 0; tt < slots; tt++ {
				if tc.down > 0 {
					switch tt {
					case at - tc.down:
						cleanFleet.Kill(0)
						fleet.Kill(0)
					case at:
						cleanFleet.Revive(0)
						fleet.Revive(0)
					}
				}
				arrivals := in.Workload.Arrivals(tt)
				if _, _, _, err := clean.RunSlot(tt, arrivals); err != nil {
					t.Fatalf("clean slot %d: %v", tt, err)
				}
				if tt == at {
					if tc.down > 0 && ct.Health()[0] != controller.Dead {
						t.Fatalf("agent 0 is %v at slot %d, want dead", ct.Health()[0], at)
					}
					for k := 0; k < tc.attempts; k++ {
						before, health := ct.Lengths(), ct.Health()
						ctx, cancel := context.WithCancel(context.Background())
						if tc.kind == "" {
							cancel()
						} else {
							plan.others.Add(agents - 1)
							plan.cancel.Store(&cancel)
						}
						_, _, _, err := ct.RunSlotContext(ctx, tt, arrivals)
						cancel()
						if plan.cancel.Load() != nil {
							t.Fatalf("attempt %d: the %s phase never reached agent %d", k, tc.kind, plan.victim)
						}
						if tc.aborts {
							if !errors.Is(err, context.Canceled) {
								t.Fatalf("attempt %d: err = %v, want one wrapping context.Canceled", k, err)
							}
							if got := ct.Slot(); got != at {
								t.Fatalf("attempt %d: slot moved to %d, want %d", k, got, at)
							}
							if got := ct.Lengths(); !reflect.DeepEqual(got, before) {
								t.Fatalf("attempt %d: backlogs moved: %v, want %v", k, got, before)
							}
						} else if err != nil {
							t.Fatalf("attempt %d: %v", k, err)
						}
						if got := ct.Health(); !reflect.DeepEqual(got, health) {
							t.Fatalf("attempt %d: health moved from %v to %v: the caller's cancellation was charged", k, health, got)
						}
					}
					if !tc.aborts {
						continue // the cancelled attempt ran the slot
					}
				}
				if _, _, _, err := ct.RunSlot(tt, arrivals); err != nil {
					t.Fatalf("slot %d: %v", tt, err)
				}
				if got, want := ct.Lengths(), clean.Lengths(); !reflect.DeepEqual(got, want) {
					t.Fatalf("slot %d: backlogs %v, want the uncancelled run's %v", tt, got, want)
				}
			}
			for i, h := range ct.Health() {
				if h != controller.Healthy {
					t.Errorf("agent %d ends %v, want healthy", i, h)
				}
			}
			for i := 0; i < agents; i++ {
				if got, want := fleet.Agent(i).QueueLens(), clean.Lengths().Local[i]; !reflect.DeepEqual(got, want) {
					t.Errorf("agent %d's own queues %v, want the uncancelled run's %v", i, got, want)
				}
			}
			if ck.Slots() != slots {
				t.Errorf("checker saw %d applied slots, want %d", ck.Slots(), slots)
			}
			if err := ck.Err(); err != nil {
				t.Errorf("invariant check: %v", err)
			}
		})
	}
	t.Run("a whole wire's allocate batch", testCancelledWireBatch)
}

// wireHold hosts real agents behind a MuxServer of its own, as the hollow
// fleet does, and holds one slot's allocates to the agents on wire 0 (the
// even sites): the first to arrive cancels the caller's context, and every
// one waits for release before its agent sees it, which then refuses or
// runs it, its error kept in late. It counts each agent's restores.
type wireHold struct {
	agents   []*agent.Agent
	slot     int
	cancel   atomic.Pointer[context.CancelFunc]
	release  chan struct{}
	held     sync.WaitGroup
	late     []error
	restores []atomic.Int64
}

func (h *wireHold) handle(dst []byte, target int, kind string, body []byte) ([]byte, error) {
	a := h.agents[target]
	switch kind {
	case transport.KindRestore:
		h.restores[target].Add(1)
	case transport.KindAllocate:
		var req transport.Allocate
		if target%2 != 0 || transport.Unmarshal(body, &req) != nil || req.Slot != h.slot {
			break
		}
		defer h.held.Done()
		if cancel := h.cancel.Swap(nil); cancel != nil {
			(*cancel)()
		}
		<-h.release
		out, err := a.AppendReply(dst, kind, body)
		h.late[target] = err
		return out, err
	}
	return a.AppendReply(dst, kind, body)
}

// testCancelledWireBatch cancels the caller's context while the allocate
// batch of one mux wire is in flight, so that every agent on the wire loses
// its allocate: the slot completes, charging no agent, and each agent on the
// wire is held to its shadow, which the next slot pushes onto it (one
// restore each) before the held allocates are let through — and refused by
// the agents' restore floor. The run then matches the uncancelled one, the
// loop's backlogs and the agents' own queues, with the checker clean.
func testCancelledWireBatch(t *testing.T) {
	const agents, slots, at = 8, 10, 3
	in, _, clean, _ := newCancelLoop(t, agents, slots, nil)
	h := &wireHold{
		agents:   make([]*agent.Agent, agents),
		slot:     at,
		release:  make(chan struct{}),
		late:     make([]error, agents),
		restores: make([]atomic.Int64, agents),
	}
	var releaseOnce sync.Once
	t.Cleanup(func() { releaseOnce.Do(func() { close(h.release) }) })
	for i := range h.agents {
		var err error
		if h.agents[i], err = agent.New(agent.Config{
			Cluster: in.Cluster, DataCenter: i, Price: in.Prices[i], Availability: in.Availability,
		}); err != nil {
			t.Fatal(err)
		}
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewMuxServer(lis, h.handle)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	const wires = 2
	clients := make([]*transport.MuxClient, wires)
	for w := range clients {
		if clients[w], err = transport.DialMux(srv.Addr(), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { clients[w].Close() })
	}
	conns := make([]controller.AgentConn, agents)
	for i := range conns {
		conns[i] = clients[i%wires].Agent(i)
	}
	ct, ck := newCheckedLoop(t, in, conns)

	healthy := func(when string) {
		t.Helper()
		for i, hl := range ct.Health() {
			if hl != controller.Healthy {
				t.Fatalf("%s: agent %d is %v, want healthy", when, i, hl)
			}
		}
	}
	for tt := 0; tt < slots; tt++ {
		arrivals := in.Workload.Arrivals(tt)
		if _, _, _, err := clean.RunSlot(tt, arrivals); err != nil {
			t.Fatalf("clean slot %d: %v", tt, err)
		}
		var restored []int64
		switch tt {
		case at:
			h.held.Add(agents / wires)
			ctx, cancel := context.WithCancel(context.Background())
			h.cancel.Store(&cancel)
			_, _, _, err := ct.RunSlotContext(ctx, tt, arrivals)
			cancel()
			if err != nil {
				t.Fatalf("cancelled slot %d: %v", tt, err)
			}
			if h.cancel.Load() != nil {
				t.Fatal("the allocate batch never reached wire 0")
			}
			healthy("after the cancelled slot")
		case at + 1:
			for i := range h.restores {
				restored = append(restored, h.restores[i].Load())
			}
			fallthrough
		default:
			if _, _, _, err := ct.RunSlot(tt, arrivals); err != nil {
				t.Fatalf("slot %d: %v", tt, err)
			}
		}
		if restored != nil {
			for i := 0; i < agents; i += wires {
				if got := h.restores[i].Load() - restored[i]; got != 1 {
					t.Errorf("slot %d pushed %d restores to agent %d, whose allocate was lost; want 1", tt, got, i)
				}
			}
			healthy("after the rewind")
			releaseOnce.Do(func() { close(h.release) })
			h.held.Wait()
			for i := 0; i < agents; i += wires {
				if h.late[i] == nil {
					t.Errorf("agent %d ran slot %d's allocate after the next slot's restore", i, at)
				}
			}
		}
		if got, want := ct.Lengths(), clean.Lengths(); !reflect.DeepEqual(got, want) {
			t.Fatalf("slot %d: backlogs %v, want the uncancelled run's %v", tt, got, want)
		}
	}
	healthy("at the horizon")
	for i, a := range h.agents {
		if got, want := a.QueueLens(), clean.Lengths().Local[i]; !reflect.DeepEqual(got, want) {
			t.Errorf("agent %d's own queues %v, want the uncancelled run's %v", i, got, want)
		}
	}
	if ck.Slots() != slots {
		t.Errorf("checker saw %d applied slots, want %d", ck.Slots(), slots)
	}
	if err := ck.Err(); err != nil {
		t.Errorf("invariant check: %v", err)
	}
}
