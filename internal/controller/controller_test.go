package controller

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"grefar/internal/agent"
	"grefar/internal/core"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// localConn adapts an in-process agent to AgentConn without TCP, for fast
// unit tests; the loopback tests below exercise the real transport.
type localConn struct {
	a *agent.Agent
}

func (l localConn) Call(kind string, reqBody, respBody any) error {
	body, err := transport.Marshal(reqBody)
	if err != nil {
		return err
	}
	out, err := l.a.AppendReply(nil, kind, body)
	if err != nil {
		return err
	}
	if respBody == nil {
		return nil
	}
	return transport.Unmarshal(out, respBody)
}

func buildSystem(t *testing.T, slots int, overTCP bool) (sim.Inputs, []AgentConn, func()) {
	t.Helper()
	in, err := sim.NewReferenceInputs(2012, slots)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]AgentConn, in.Cluster.N())
	var cleanups []func()
	for i := 0; i < in.Cluster.N(); i++ {
		a, err := agent.New(agent.Config{
			Cluster:      in.Cluster,
			DataCenter:   i,
			Price:        in.Prices[i],
			Availability: in.Availability,
		})
		if err != nil {
			t.Fatal(err)
		}
		if overTCP {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := a.Serve(lis)
			cli, err := transport.DialMux(srv.Addr(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			conns[i] = cli.Agent(0)
			cleanups = append(cleanups, func() { cli.Close(); srv.Close() })
		} else {
			conns[i] = localConn{a: a}
		}
	}
	return in, conns, func() {
		for _, f := range cleanups {
			f()
		}
	}
}

func TestNewValidation(t *testing.T) {
	in, conns, cleanup := buildSystem(t, 10, false)
	defer cleanup()
	g, err := core.New(in.Cluster, core.Config{V: 7.5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(in.Cluster, nil, conns); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := New(in.Cluster, g, conns[:1]); err == nil {
		t.Error("missing agents accepted")
	}
	bad := model.NewReferenceCluster()
	bad.Accounts = nil
	if _, err := New(bad, g, conns); err == nil {
		t.Error("invalid cluster accepted")
	}
}

// TestDistributedMatchesSimulator is the keystone test: the distributed
// control loop (controller + agents) must run the single-process simulator's
// queue trajectory bit for bit on the same inputs and scheduler, because the
// protocol preserves the exact slot semantics. And one account bills, scores
// and sums both: every ack's Energy is its row's central bill, the loop's
// JSONL slot events are the simulator's byte for byte apart from their
// origin, and its Result is the simulator's. The over-ask row pins the one
// fairness definition where it matters: its scheduler asks every site to
// process more than the queues hold, so the processed counts fall short of
// h, and fairness is still eq. (3)'s score of the allocation sum h*d in
// both.
func TestDistributedMatchesSimulator(t *testing.T) {
	const slots = 24 * 14
	grefar := func(beta float64) func(c *model.Cluster) sched.Scheduler {
		return func(c *model.Cluster) sched.Scheduler {
			g, err := core.New(c, core.Config{V: 7.5, Beta: beta})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
	}
	for _, tc := range []struct {
		name     string
		sched    func(c *model.Cluster) sched.Scheduler
		overAsks bool
	}{
		{"beta=0", grefar(0), false},
		{"beta=100", grefar(100), false},
		{"over-ask", func(c *model.Cluster) sched.Scheduler { return &overAsk{c: c, act: model.NewAction(c)} }, true},
	} {
		for _, overTCP := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/tcp=%v", tc.name, overTCP), func(t *testing.T) {
				in, conns, cleanup := buildSystem(t, slots, overTCP)
				defer cleanup()
				var loopEvents, engEvents bytes.Buffer
				ct, err := New(in.Cluster, tc.sched(in.Cluster), conns, WithObserver(telemetry.NewJSONLObserver(&loopEvents)))
				if err != nil {
					t.Fatal(err)
				}
				in2, err := sim.NewReferenceInputs(2012, slots)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := sim.NewEngine(in2, tc.sched(in2.Cluster), sim.Options{
					ValidateActions: true,
					Observer:        telemetry.NewJSONLObserver(&engEvents),
				})
				if err != nil {
					t.Fatal(err)
				}
				c, overAsked := in.Cluster, 0
				for s := 0; s < slots; s++ {
					act, st, acks, err := ct.RunSlot(s, in.Workload.Arrivals(s))
					if err != nil {
						t.Fatalf("slot %d: %v", s, err)
					}
					for i, ack := range acks {
						if want := act.EnergyAt(c, st, i); ack.Energy != want {
							t.Fatalf("slot %d: agent %d acked energy %v, its row bills %v", s, i, ack.Energy, want)
						}
						for j, p := range ack.Processed {
							if act.Process[i][j] >= p+1 {
								overAsked++
							}
						}
					}
					if err := eng.Step(nil); err != nil {
						t.Fatal(err)
					}
					if got, want := ct.Lengths(), eng.Lengths(); !reflect.DeepEqual(got, want) {
						t.Fatalf("slot %d: backlogs %v, simulator %v", s, got, want)
					}
					// Cohort for cohort: the loop's central ledgers and
					// shadows snapshot to the engine's queue bytes, at the
					// same next slot, with the same lifetime counters.
					got, err := ct.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					want, err := eng.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("slot %d: exported state (slot %d, %d queue bytes, arrived %v, processed %v) differs from the simulator's (slot %d, %d bytes, %v, %v)",
							s, got.Slot, len(got.Queues), got.TotalArrived, got.TotalProcessed,
							want.Slot, len(want.Queues), want.TotalArrived, want.TotalProcessed)
					}
				}
				if tc.overAsks && overAsked == 0 {
					t.Fatal("no site was asked for a job more than it processed; the row proves nothing")
				}

				loopLines := bytes.Split(bytes.ReplaceAll(loopEvents.Bytes(), []byte(`"origin":"controller"`), []byte(`"origin":"sim"`)), []byte("\n"))
				engLines := bytes.Split(engEvents.Bytes(), []byte("\n"))
				if len(loopLines) != len(engLines) {
					t.Fatalf("loop wrote %d event lines, simulator %d", len(loopLines), len(engLines))
				}
				differ := 0
				for k := range loopLines {
					if !bytes.Equal(loopLines[k], engLines[k]) {
						if differ == 0 {
							t.Errorf("first differing event:\n loop:      %s\n simulator: %s", loopLines[k], engLines[k])
						}
						differ++
					}
				}
				if differ > 0 {
					t.Errorf("%d of %d events differ from the simulator's", differ, slots)
				}
				if got, want := ct.Result(), eng.Result(); !reflect.DeepEqual(got, want) {
					t.Errorf("loop's result %+v, simulator's %+v", got, want)
				}
			})
		}
	}
}

// overAsk asks every site to process more than its queues hold: every
// available server busy, the site's capacity split evenly over its eligible
// job types, and every central job routed to its type's first eligible site.
type overAsk struct {
	c   *model.Cluster
	act *model.Action
}

func (o *overAsk) Name() string { return "over-ask" }

func (o *overAsk) Decide(t int, st *model.State, q queue.Lengths) (*model.Action, error) {
	c, act := o.c, o.act
	for i := range act.Process {
		clear(act.Route[i])
		clear(act.Process[i])
		copy(act.Busy[i], st.Avail[i])
		var eligible []int
		for j := range c.JobTypes {
			if c.JobTypes[j].EligibleSet(i) {
				eligible = append(eligible, j)
			}
		}
		for _, j := range eligible {
			jt := &c.JobTypes[j]
			h := st.Capacity(c, i) / float64(len(eligible)) / jt.Demand
			if jt.MaxProcess > 0 {
				h = min(h, jt.MaxProcess)
			}
			act.Process[i][j] = h
		}
	}
	for j, jt := range c.JobTypes {
		r := int(q.Central[j])
		if jt.MaxRoute > 0 {
			r = min(r, jt.MaxRoute)
		}
		act.Route[jt.Eligible[0]][j] = r
	}
	return act, nil
}

func TestDistributedAlways(t *testing.T) {
	const slots = 24 * 5
	in, conns, cleanup := buildSystem(t, slots, false)
	defer cleanup()
	a, err := sched.NewAlways(in.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := New(in.Cluster, a, conns)
	if err != nil {
		t.Fatal(err)
	}
	var delaySum, processed0, processed float64
	for s := 0; s < slots; s++ {
		_, _, acks, err := ct.RunSlot(s, in.Workload.Arrivals(s))
		if err != nil {
			t.Fatal(err)
		}
		for i, ack := range acks {
			for j, p := range ack.Processed {
				processed += p
				if i == 0 {
					delaySum += ack.DelaySum[j]
					processed0 += p
				}
			}
		}
	}
	if d := delaySum / processed0; d < 0.9 || d > 1.5 {
		t.Errorf("Always delay = %v, want ~1", d)
	}
	if processed <= 0 {
		t.Error("nothing processed")
	}
}

// flakyRestoreConn loses the first restore it is sent.
type flakyRestoreConn struct {
	AgentConn
	lost bool
}

func (f *flakyRestoreConn) Call(kind string, reqBody, respBody any) error {
	if kind == transport.KindRestore && !f.lost {
		f.lost = true
		return errors.New("restore lost")
	}
	return f.AgentConn.Call(kind, reqBody, respBody)
}

// TestControllerSnapshotRestore checkpoints the loop mid-run with
// ExportState, lets the agents run three slots past it, and resumes a
// replacement loop from the checkpoint: its first slot must rewind every
// agent onto the restored shadows, so the replayed slots repeat the original
// trajectory exactly — the loop's backlogs and the agents' own queues. It
// holds under both failure policies, and under Degrade when the rewind's
// restore is lost: the agent stays Healthy (suspect-after 2), and its
// differing report must not re-seed the shadow.
func TestControllerSnapshotRestore(t *testing.T) {
	const checkpoint, slots = 5, 8
	in, conns, cleanup := buildSystem(t, slots, false)
	defer cleanup()
	build := func(conns []AgentConn, opts ...Option) *Controller {
		g, err := core.New(in.Cluster, core.Config{V: 7.5, Beta: 100})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := New(in.Cluster, g, conns, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	agentLens := func() [][]float64 {
		out := make([][]float64, len(conns))
		for i, c := range conns {
			out[i] = c.(localConn).a.QueueLens()
		}
		return out
	}
	ct := build(conns)
	var state *sim.EngineState
	wantLens := make([]queue.Lengths, slots)
	wantAgents := make([][][]float64, slots)
	for s := 0; s < slots; s++ {
		if s == checkpoint {
			var err error
			if state, err = ct.ExportState(); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, _, err := ct.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
			t.Fatal(err)
		}
		wantLens[s], wantAgents[s] = ct.Lengths(), agentLens()
	}
	if state.Slot != checkpoint || ct.Slot() != slots {
		t.Fatalf("state at slot %d, loop at %d", state.Slot, ct.Slot())
	}

	for _, tc := range []struct {
		name string
		opts []Option
		lose int // the agent whose first restore is lost, -1 for none
	}{
		{"strict", nil, -1},
		{"degrade", []Option{WithFailurePolicy(Degrade)}, -1},
		{"degrade/restore-lost", []Option{WithFailurePolicy(Degrade), WithHealthThresholds(2, 3)}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cs := append([]AgentConn(nil), conns...)
			if tc.lose >= 0 {
				cs[tc.lose] = &flakyRestoreConn{AgentConn: cs[tc.lose]}
			}
			ct2 := build(cs, tc.opts...)
			if err := ct2.RestoreState(state); err != nil {
				t.Fatal(err)
			}
			if ct2.Slot() != checkpoint {
				t.Fatalf("restored loop at slot %d, want %d", ct2.Slot(), checkpoint)
			}
			for s := checkpoint; s < slots; s++ {
				if _, _, _, err := ct2.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
					t.Fatalf("slot %d: %v", s, err)
				}
				if got := ct2.Lengths(); !reflect.DeepEqual(got, wantLens[s]) {
					t.Fatalf("slot %d: backlogs %v, want %v", s, got, wantLens[s])
				}
				if got := agentLens(); !reflect.DeepEqual(got, wantAgents[s]) {
					t.Fatalf("slot %d: agents' queues %v, want %v", s, got, wantAgents[s])
				}
			}
			if tc.lose >= 0 && !cs[tc.lose].(*flakyRestoreConn).lost {
				t.Fatal("the rewind never reached the flaky agent")
			}
		})
	}

	ct2 := build(conns)
	if err := ct2.RestoreState(&sim.EngineState{Queues: []byte("junk")}); err == nil {
		t.Error("junk snapshot accepted")
	}
	if err := ct2.RestoreState(&sim.EngineState{Slot: -1, Queues: state.Queues}); err == nil {
		t.Error("negative slot accepted")
	}
}

// ctxConn wraps localConn with a CallContext method, recording that the
// controller preferred the context-aware path.
type ctxConn struct {
	localConn
	sawCtx bool
}

func (c *ctxConn) CallContext(ctx context.Context, kind string, reqBody, respBody any) error {
	c.sawCtx = true
	if err := ctx.Err(); err != nil {
		return err
	}
	return c.Call(kind, reqBody, respBody)
}

func TestRunSlotUsesCallContextWhenAvailable(t *testing.T) {
	in, conns, cleanup := buildSystem(t, 10, false)
	defer cleanup()
	wrapped := make([]AgentConn, len(conns))
	ctxConns := make([]*ctxConn, len(conns))
	for i, c := range conns {
		cc := &ctxConn{localConn: c.(localConn)}
		ctxConns[i] = cc
		wrapped[i] = cc
	}
	g, _ := core.New(in.Cluster, core.Config{V: 7.5})
	ct, err := New(in.Cluster, g, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ct.RunSlot(0, in.Workload.Arrivals(0)); err != nil {
		t.Fatal(err)
	}
	for i, cc := range ctxConns {
		if !cc.sawCtx {
			t.Errorf("agent %d: controller used Call, want CallContext", i)
		}
	}

	// A canceled context must surface from the agent calls, not hang.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err = ct.RunSlotContext(ctx, 1, in.Workload.Arrivals(1))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
