package controller_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

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
	return in, fleet, ct, ck
}

// TestCancelledSlotChargesNoAgent pins that a done context is the caller's
// failure, never the agents'. Under Degrade, a context done at entry or by
// the end of the gather aborts the slot before anything moves: the error
// wraps context.Canceled, the slot counter, the backlogs and every agent's
// health stay as they were, and repeating it changes nothing. A context done
// in the scatter lets the slot complete, but the allocates it cut short count
// against no agent: every agent stays Healthy, and its shadow, which holds
// the allocate, is pushed onto it at the next slot. Either way the run then
// goes on exactly as an uncancelled run of the same slots does, with the
// invariant checker holding on every applied slot.
func TestCancelledSlotChargesNoAgent(t *testing.T) {
	const agents, slots, at = 8, 10, 3
	for _, tc := range []struct {
		name     string
		kind     string // the call kind the context is cancelled on; "" cancels before the slot
		attempts int    // cancelled attempts of slot at
		aborts   bool
	}{
		{"at entry", "", 4, true},
		{"in the gather", transport.KindState, 2, true},
		{"in the scatter", transport.KindAllocate, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, _, clean, _ := newCancelLoop(t, agents, slots, nil)
			plan := &cancelPlan{kind: tc.kind, victim: 2}
			_, fleet, ct, ck := newCancelLoop(t, agents, slots, plan)
			for tt := 0; tt < slots; tt++ {
				arrivals := in.Workload.Arrivals(tt)
				if _, _, _, err := clean.RunSlot(tt, arrivals); err != nil {
					t.Fatalf("clean slot %d: %v", tt, err)
				}
				if tt == at {
					for k := 0; k < tc.attempts; k++ {
						before := ct.Lengths()
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
						for i, h := range ct.Health() {
							if h != controller.Healthy {
								t.Fatalf("attempt %d: agent %d is %v, want healthy: the caller's cancellation was charged to it", k, i, h)
							}
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
}
