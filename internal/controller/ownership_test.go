package controller_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"grefar/internal/controller"
	"grefar/internal/hollow"
	"grefar/internal/model"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// detailKeeper retains every SlotDetail it is handed, as a verification
// consumer may.
type detailKeeper struct{ details map[int]*telemetry.SlotDetail }

func (k *detailKeeper) ObserveSlot(ev telemetry.SlotEvent) { k.details[ev.Slot] = ev.Detail }
func (k *detailKeeper) WantsSlotDetail() bool              { return true }

// slotOutputs is everything one slot hands out: RunSlot's return values and
// the detail its observer received.
type slotOutputs struct {
	Action *model.Action
	State  *model.State
	Acks   []transport.AllocateAck
	// SlotDetail's own fields are hidden from encoding/json, so they are
	// listed here.
	DetailState          *model.State
	DetailAction         *model.Action
	Pre, Post            any
	Arrivals             []int
	Routed, ProcessedJob [][]float64
}

// lateGate choreographs an allocate whose reply arrives after its call gave
// up. While armed, the agent's server runs the allocate, reports it executed
// and holds the reply back; the connection then cancels the call and, once
// the call has returned, lets the server send the reply, which nobody awaits
// any more.
type lateGate struct {
	armed    atomic.Bool
	executed chan struct{} // server to conn: the agent ran the allocate
	gaveUp   chan struct{} // conn to server: the call has returned
	replied  chan struct{} // server to test: the late reply is being sent
	err      error         // what the abandoned call returned
}

func newLateGate() *lateGate {
	return &lateGate{executed: make(chan struct{}), gaveUp: make(chan struct{}), replied: make(chan struct{}, 1)}
}

// handler is the late agent's MuxHandler: a hollow agent's own handler, with
// the armed allocate's reply held back.
func (g *lateGate) handler(fleet *hollow.Fleet) transport.MuxHandler {
	return func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		out, err := fleet.Agent(target).AppendReply(dst, kind, body)
		if kind == transport.KindAllocate && g.armed.Load() {
			g.executed <- struct{}{}
			<-g.gaveUp
			g.replied <- struct{}{}
		}
		return out, err
	}
}

// lateConn is the late agent's connection. Its type hides the MuxConn, so
// the loop calls it on its own.
type lateConn struct {
	inner *transport.MuxConn
	gate  *lateGate
}

func (c lateConn) Call(kind string, reqBody, respBody any) error {
	return c.CallContext(context.Background(), kind, reqBody, respBody)
}

func (c lateConn) CallContext(ctx context.Context, kind string, reqBody, respBody any) error {
	if kind != transport.KindAllocate || !c.gate.armed.Load() {
		return c.inner.CallContext(ctx, kind, reqBody, respBody)
	}
	ctx, cancel := context.WithCancel(ctx)
	go func() {
		<-c.gate.executed
		cancel()
	}()
	c.gate.err = c.inner.CallContext(ctx, kind, reqBody, respBody)
	c.gate.gaveUp <- struct{}{}
	return c.gate.err
}

// cloneAcks is the deep copy a caller keeping a slot's acks takes.
func cloneAcks(acks []transport.AllocateAck) []transport.AllocateAck {
	out := make([]transport.AllocateAck, len(acks))
	for i, ack := range acks {
		ack.Processed = append([]float64(nil), ack.Processed...)
		ack.DelaySum = append([]float64(nil), ack.DelaySum...)
		out[i] = ack
	}
	return out
}

// TestSlotOutputsBelongToTheCaller pins the two ownership rules of a slot's
// outputs. What RunSlot returns is the controller's until its next RunSlot:
// every slot's action, state and acks, read at return, must read the same
// just before the next RunSlot — nothing the loop runs in the background,
// and no reply arriving late, may write them in between — and a Clone taken
// at slot t must be unchanged after slots t+1 and t+2 rewrote the originals.
// What an observer is handed is its own: a detail kept from slot t must be
// unchanged after slots t+1 and t+2, although the loop reuses its gather and
// scatter scratch and keeps the slot's backlog and shadow-replay matrices.
// At slot t one agent is down, so a masked site's zero ack is among the
// outputs; another loses its allocate, so a synthesized ack is too; and a
// third runs its allocate but answers only after its call gave up. Without an
// observer the loop keeps every matrix in its scratch; the outputs must not
// care.
func TestSlotOutputsBelongToTheCaller(t *testing.T) {
	const agents, down, lost, late, keep = 8, 5, 6, 7, 3
	for _, lc := range []loopCtor{loopCtors[0], planeCtor("controlplane.New/P=2", 2, false), {
		name: "controller.New/unobserved",
		build: func(c *model.Cluster, conns []controller.AgentConn, policy controller.FailurePolicy, _ telemetry.SlotObserver) (*controller.Controller, error) {
			return loopCtors[0].build(c, conns, policy, nil)
		},
	}} {
		t.Run(lc.name, func(t *testing.T) {
			in, err := hollow.NewScaleInputs(2012, agents, 16)
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := hollow.NewFleet(in, hollow.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			fleet.Kill(down)
			conns := fleet.Conns()
			var failAlloc atomic.Bool
			conns[lost] = allocGateConn{inner: conns[lost], fail: &failAlloc}

			// The late agent is the fleet's own, served from a listener of
			// its own so its replies can be held back.
			gate := newLateGate()
			srv, cli := startMux(t, gate.handler(fleet))
			defer srv.Close()
			defer cli.Close()
			conns[late] = lateConn{inner: cli.Agent(late), gate: gate}

			keeper := &detailKeeper{details: map[int]*telemetry.SlotDetail{}}
			ct, err := lc.build(in.Cluster, conns, controller.Degrade, keeper)
			if err != nil {
				t.Fatal(err)
			}
			var kept slotOutputs
			var want []byte
			var last slotOutputs
			var lastAtReturn []byte
			for tt := 0; tt < keep+3; tt++ {
				if tt > 0 {
					if got := mustJSON(t, last); !bytes.Equal(got, lastAtReturn) {
						t.Fatalf("slot %d's returned outputs changed before the next RunSlot:\n got %s\nwant %s", tt-1, got, lastAtReturn)
					}
				}
				failAlloc.Store(tt == keep)
				gate.armed.Store(tt == keep)
				act, st, acks, err := ct.RunSlot(tt, in.Workload.Arrivals(tt))
				if err != nil {
					t.Fatalf("slot %d: %v", tt, err)
				}
				last = slotOutputs{Action: act, State: st, Acks: acks}
				lastAtReturn = mustJSON(t, last)
				if tt != keep {
					continue
				}
				// The late reply is on its way to a call that is gone.
				select {
				case <-gate.replied:
				case <-time.After(10 * time.Second):
					t.Fatal("the late agent never sent its held-back reply")
				}
				if !errors.Is(gate.err, context.Canceled) {
					t.Fatalf("the late agent's allocate returned %v, want context.Canceled", gate.err)
				}

				kept = slotOutputs{Action: act.Clone(), State: st.Clone(), Acks: cloneAcks(acks)}
				if d := keeper.details[tt]; d != nil {
					kept.DetailState, kept.DetailAction, kept.Pre, kept.Post = d.State, d.Action, d.Pre, d.Post
					kept.Arrivals, kept.Routed, kept.ProcessedJob = d.Arrivals, d.Routed, d.Processed
				}
				want = mustJSON(t, kept)
				for _, i := range []int{lost, late} {
					var processed float64
					for _, p := range acks[i].Processed {
						processed += p
					}
					if processed == 0 {
						t.Fatalf("agent %d's synthesized ack processed nothing; the test would compare zeros with zeros", i)
					}
				}

				// The slot must have had something to overwrite, and the
				// masked agent's ack must be the whole zero ack.
				var processed float64
				for i, ack := range acks {
					if len(ack.Processed) != in.Cluster.J() || len(ack.DelaySum) != in.Cluster.J() || ack.Slot != tt {
						t.Fatalf("ack %d is malformed: %+v", i, ack)
					}
					for _, p := range ack.Processed {
						processed += p
					}
				}
				if processed == 0 {
					t.Fatal("slot processed nothing; the test would compare zeros with zeros")
				}
				zero := transport.AllocateAck{Slot: tt, Processed: make([]float64, in.Cluster.J()), DelaySum: make([]float64, in.Cluster.J())}
				if got, _ := json.Marshal(acks[down]); !bytes.Equal(got, mustJSON(t, zero)) {
					t.Errorf("masked agent's ack = %s, want the zero ack", got)
				}
			}
			if got := mustJSON(t, kept); !bytes.Equal(got, want) {
				t.Errorf("slot %d's clones or observer detail changed while later slots ran:\n got %s\nwant %s", keep, got, want)
			}
			if got := mustJSON(t, last); !bytes.Equal(got, lastAtReturn) {
				t.Errorf("the last slot's returned outputs changed after return:\n got %s\nwant %s", got, lastAtReturn)
			}
		})
	}
}

// startMux serves handler on a loopback MuxServer and dials it.
func startMux(t *testing.T, handler transport.MuxHandler) (*transport.MuxServer, *transport.MuxClient) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewMuxServer(lis, handler)
	go srv.Serve()
	cli, err := transport.DialMux(srv.Addr(), 5*time.Second)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	return srv, cli
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
