package controller_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/controlplane"
	"grefar/internal/core"
	"grefar/internal/invariant"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
	"grefar/internal/transport/chaos"
)

// loopCtor is one way to construct the control loop. The loop is one loop, so
// its contracts — arrival validation, strict abort and restore, degrade
// masking — are tested once, over every constructor.
type loopCtor struct {
	name  string
	build func(c *model.Cluster, conns []controller.AgentConn, policy controller.FailurePolicy, obs telemetry.SlotObserver) (*controller.Controller, error)
}

func grefarFactory(c *model.Cluster) func() (sched.Scheduler, error) {
	return func() (sched.Scheduler, error) { return core.New(c, core.Config{V: 7.5}) }
}

// jitterConn holds every reply back a random few microseconds, so the
// concurrent per-agent calls finish in a different order from call to call.
type jitterConn struct{ inner controller.AgentConn }

func (j jitterConn) Call(kind string, reqBody, respBody any) error {
	time.Sleep(time.Duration(rand.IntN(200)) * time.Microsecond)
	return j.inner.Call(kind, reqBody, respBody)
}

// planeCtor builds the loop through the deprecated controlplane adapter,
// which accepts a partition count and changes nothing for it. A /concurrent
// row runs the loop over jittered agents whose replies finish out of order, a
// /deterministic row over agents that answer at once; every row owes the
// single controller's trajectory.
func planeCtor(name string, parts int, jitter bool) loopCtor {
	return loopCtor{
		name: name,
		build: func(c *model.Cluster, conns []controller.AgentConn, policy controller.FailurePolicy, obs telemetry.SlotObserver) (*controller.Controller, error) {
			if jitter {
				jittered := make([]controller.AgentConn, len(conns))
				for i, conn := range conns {
					jittered[i] = jitterConn{inner: conn}
				}
				conns = jittered
			}
			return controlplane.New(c, conns, controlplane.Config{
				Partitions:   parts,
				NewScheduler: grefarFactory(c),
				Policy:       policy,
				Observer:     obs,
			})
		},
	}
}

var loopCtors = []loopCtor{
	{
		name: "controller.New",
		build: func(c *model.Cluster, conns []controller.AgentConn, policy controller.FailurePolicy, obs telemetry.SlotObserver) (*controller.Controller, error) {
			g, err := grefarFactory(c)()
			if err != nil {
				return nil, err
			}
			return controller.New(c, g, conns, controller.WithFailurePolicy(policy), controller.WithObserver(obs))
		},
	},
	planeCtor("controlplane.New/P=1/concurrent", 1, true),
	planeCtor("controlplane.New/P=2/concurrent", 2, true),
	planeCtor("controlplane.New/P=2/deterministic", 2, false),
	planeCtor("controlplane.New/P=3/concurrent", 3, true),
}

// eachLoop runs f as one subtest per constructor.
func eachLoop(t *testing.T, f func(t *testing.T, lc loopCtor)) {
	for _, lc := range loopCtors {
		t.Run(lc.name, func(t *testing.T) { f(t, lc) })
	}
}

func TestRunSlotRejectsBadArrivals(t *testing.T) {
	eachLoop(t, func(t *testing.T, lc loopCtor) {
		in, conns, cleanup := controller.BuildSystem(t, 10, false)
		defer cleanup()
		ct, err := lc.build(in.Cluster, conns, controller.Strict, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ct.RunSlot(0, []int{1}); err == nil {
			t.Error("short arrivals accepted")
		}
		neg := make([]int, in.Cluster.J())
		neg[0] = -1
		if _, _, _, err := ct.RunSlot(0, neg); err == nil {
			t.Error("negative arrivals accepted")
		}
	})
}

// allocGateConn is an agent connection whose allocate calls fail while the
// gate is tripped — before reaching the agent, so nothing executes. This
// models a scatter-phase outage (the controller decided, the dispatch never
// arrived), which under Strict must abort the slot without side effects.
type allocGateConn struct {
	inner controller.AgentConn
	fail  *atomic.Bool
}

func (g allocGateConn) Call(kind string, reqBody, respBody any) error {
	if kind == transport.KindAllocate && g.fail.Load() {
		return errors.New("allocGateConn: scatter failed")
	}
	return g.inner.Call(kind, reqBody, respBody)
}

// TestStrictAllocateAbortConservesJobs pins the Strict-mode atomicity
// contract: an allocate-phase failure aborts the slot AFTER the central
// ledger pops, so without checkpoint/restore a retried slot would pop the
// same jobs twice and leak them out of the system. The test runs a faulty
// system (one slot fails at scatter twice in a row, then is retried) side by
// side with a clean single controller on identical inputs, with the invariant
// checker attached to the faulty run: each abort must leave the loop's queues
// exactly as it found them, down to the snapshot bytes — the checkpoint the
// loop copies into is reused, so a second abort restores from what the first
// left — the checker's conservation and flow rules must hold on every applied
// slot, and from the retry on, every snapshot and every ack must be the clean
// run's.
func TestStrictAllocateAbortConservesJobs(t *testing.T) {
	const slots, failAt, aborts = 12, 6, 2
	eachLoop(t, func(t *testing.T, lc loopCtor) {
		inClean, connsClean, cleanupClean := controller.BuildSystem(t, slots, false)
		defer cleanupClean()
		inFaulty, connsFaulty, cleanupFaulty := controller.BuildSystem(t, slots, false)
		defer cleanupFaulty()

		var fail atomic.Bool
		gated := make([]controller.AgentConn, len(connsFaulty))
		for i := range connsFaulty {
			gated[i] = allocGateConn{inner: connsFaulty[i], fail: &fail}
		}
		ctClean, err := loopCtors[0].build(inClean.Cluster, connsClean, controller.Strict, nil)
		if err != nil {
			t.Fatal(err)
		}
		ck := invariant.NewChecker(inFaulty.Cluster, invariant.CheckerOptions{})
		ctFaulty, err := lc.build(inFaulty.Cluster, gated, controller.Strict, ck)
		if err != nil {
			t.Fatal(err)
		}
		snapshot := func(ct *controller.Controller) []byte {
			t.Helper()
			st, err := ct.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			return st.Queues
		}

		for tt := 0; tt < slots; tt++ {
			arrivals := inClean.Workload.Arrivals(tt)
			_, _, acksClean, err := ctClean.RunSlot(tt, arrivals)
			if err != nil {
				t.Fatalf("clean slot %d: %v", tt, err)
			}

			if tt == failAt {
				before := snapshot(ctFaulty)
				fail.Store(true)
				for k := 0; k < aborts; k++ {
					if _, _, _, err := ctFaulty.RunSlot(tt, arrivals); err == nil {
						t.Fatalf("slot %d, attempt %d: scatter outage did not abort the strict slot", tt, k)
					}
					if after := snapshot(ctFaulty); !bytes.Equal(after, before) {
						t.Fatalf("slot %d abort %d changed the loop's queues (popped jobs not restored)", tt, k)
					}
				}
				fail.Store(false)
			}
			_, _, acksFaulty, err := ctFaulty.RunSlot(tt, arrivals)
			if err != nil {
				t.Fatalf("faulty slot %d (retry): %v", tt, err)
			}
			if !reflect.DeepEqual(acksFaulty, acksClean) {
				t.Fatalf("slot %d: acks %+v, want the clean run's %+v", tt, acksFaulty, acksClean)
			}
			if !bytes.Equal(snapshot(ctFaulty), snapshot(ctClean)) {
				t.Fatalf("slot %d: the loop's snapshot differs from the clean run's", tt)
			}
		}

		cleanLens, faultyLens := ctClean.CentralLens(), ctFaulty.CentralLens()
		for j := range cleanLens {
			if cleanLens[j] != faultyLens[j] {
				t.Errorf("final central queue %d: %v != clean %v", j, faultyLens[j], cleanLens[j])
			}
		}
		if ck.Slots() != slots {
			t.Errorf("checker saw %d applied slots, want %d (the aborted slot must not emit)", ck.Slots(), slots)
		}
		if err := ck.Err(); err != nil {
			t.Errorf("invariant check on failed-then-retried trajectory: %v", err)
		}
	})
}

// TestStrictPolicyStillAborts pins the historical contract: without the
// Degrade opt-in, an injected fault aborts the slot with an error instead of
// masking the agent.
func TestStrictPolicyStillAborts(t *testing.T) {
	eachLoop(t, func(t *testing.T, lc loopCtor) {
		in, conns, cleanup := controller.BuildSystem(t, 10, false)
		defer cleanup()
		plan := &chaos.Plan{Seed: 1, Windows: []chaos.Window{{Agent: 1, From: 3, To: 5}}}
		for i := range conns {
			conns[i] = plan.Wrap(conns[i], i)
		}
		ct, err := lc.build(in.Cluster, conns, controller.Strict, nil)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 3; s++ {
			if _, _, _, err := ct.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
				t.Fatalf("healthy slot %d: %v", s, err)
			}
		}
		if _, _, _, err := ct.RunSlot(3, in.Workload.Arrivals(3)); err == nil {
			t.Fatal("Strict policy completed a slot with a partitioned agent")
		}
	})
}

// failFromConn fails every call to one agent while down is set, modeling a
// mid-run outage visible only at the wire.
type failFromConn struct {
	inner controller.AgentConn
	down  *atomic.Bool
}

func (f failFromConn) Call(kind string, reqBody, respBody any) error {
	if f.down.Load() {
		return errors.New("failFromConn: agent unreachable")
	}
	return f.inner.Call(kind, reqBody, respBody)
}

// TestDegradeMasksFailedAgent checks the Degrade contract on every
// constructor: the run continues, the failed agent is masked out of the slot
// evidence, its health leaves Healthy, and the invariant checker holds on
// every applied slot.
func TestDegradeMasksFailedAgent(t *testing.T) {
	const slots, failAt, victim = 16, 4, 1
	eachLoop(t, func(t *testing.T, lc loopCtor) {
		in, conns, cleanup := controller.BuildSystem(t, slots, false)
		defer cleanup()
		var down atomic.Bool
		conns[victim] = failFromConn{inner: conns[victim], down: &down}
		ck := invariant.NewChecker(in.Cluster, invariant.CheckerOptions{})
		var buf bytes.Buffer
		ct, err := lc.build(in.Cluster, conns, controller.Degrade,
			telemetry.MultiObserver{ck, telemetry.NewJSONLObserver(&buf)})
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0; tt < slots; tt++ {
			if tt == failAt {
				down.Store(true)
			}
			if _, _, _, err := ct.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
				t.Fatalf("degrade slot %d: %v", tt, err)
			}
		}
		if err := ck.Err(); err != nil {
			t.Errorf("invariant violation in degraded run: %v", err)
		}
		if got := ct.Health()[victim]; got == controller.Healthy {
			t.Errorf("victim agent still Healthy after %d failed slots", slots-failAt)
		}
		events := bytes.Count(buf.Bytes(), []byte(`"degraded":[`))
		masked := bytes.Count(buf.Bytes(), []byte(`"degraded":[1]`))
		if masked == 0 {
			t.Errorf("no slot event masked agent %d (saw %d degraded fields)", victim, events)
		}
	})
}

// TestBacklogMatchesLengthsSum pins Backlog to the snapshot sum it replaces:
// the same bits as Lengths().Sum() after every slot of a Degrade run in which
// one agent goes down and is masked, its shadow frozen.
func TestBacklogMatchesLengthsSum(t *testing.T) {
	const slots, failAt, victim = 12, 4, 1
	in, conns, cleanup := controller.BuildSystem(t, slots, false)
	defer cleanup()
	var down atomic.Bool
	conns[victim] = failFromConn{inner: conns[victim], down: &down}
	ct, err := loopCtors[0].build(in.Cluster, conns, controller.Degrade, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < slots; tt++ {
		down.Store(tt >= failAt)
		if _, _, _, err := ct.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
		if got, want := ct.Backlog(), ct.Lengths().Sum(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("slot %d: Backlog() = %v, want Lengths().Sum() = %v, bit for bit", tt, got, want)
		}
	}
	if ct.Health()[victim] == controller.Healthy || ct.Backlog() == 0 {
		t.Fatal("the run masked no agent or held no backlog; the test would compare nothing")
	}
}

// countingScheduler counts the Decide calls reaching the scheduler it wraps.
type countingScheduler struct {
	sched.Scheduler
	decides *atomic.Int64
}

func (c countingScheduler) Decide(t int, st *model.State, q queue.Lengths) (*model.Action, error) {
	c.decides.Add(1)
	return c.Scheduler.Decide(t, st, q)
}

// TestDeterministicDecidesOnce pins what the adapter promises at every
// partition count: one scheduler built, one Decide per slot, deprecated
// counters at zero, and no control-plane metric family published.
func TestDeterministicDecidesOnce(t *testing.T) {
	const slots = 12
	for parts := 1; parts <= 3; parts++ {
		in, conns, cleanup := controller.BuildSystem(t, slots, false)
		defer cleanup()
		var built, decides atomic.Int64
		reg := telemetry.NewRegistry()
		pl, err := controlplane.New(in.Cluster, conns, controlplane.Config{
			Partitions: parts,
			NewScheduler: func() (sched.Scheduler, error) {
				built.Add(1)
				g, err := grefarFactory(in.Cluster)()
				return countingScheduler{Scheduler: g, decides: &decides}, err
			},
			Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0; tt < slots; tt++ {
			if _, _, _, err := pl.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
				t.Fatalf("slot %d: %v", tt, err)
			}
		}
		for _, st := range pl.Stats() {
			if st.Conflicts != 0 || st.Retries != 0 || st.Commits != 0 || st.Forced != 0 {
				t.Errorf("P=%d partition %d: counters %+v, want zero", parts, st.Partition, st)
			}
		}
		var prom bytes.Buffer
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if built.Load() != 1 || decides.Load() != slots || bytes.Contains(prom.Bytes(), []byte("controlplane")) {
			t.Errorf("P=%d: %d schedulers built, %d decides over %d slots, control-plane family published: %v; want 1, %d, false",
				parts, built.Load(), decides.Load(), slots, bytes.Contains(prom.Bytes(), []byte("controlplane")), slots)
		}
	}
}

// frameCountingListener counts the frames a MuxServer behind it answers: the
// server writes each reply frame with exactly one Write, one per request
// frame.
type frameCountingListener struct {
	net.Listener
	frames *atomic.Int64
}

func (l frameCountingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return frameCountingConn{Conn: conn, frames: l.frames}, nil
}

type frameCountingConn struct {
	net.Conn
	frames *atomic.Int64
}

func (c frameCountingConn) Write(b []byte) (int, error) {
	c.frames.Add(1)
	return c.Conn.Write(b)
}

// opaqueConn hides a MuxConn's type, as a chaos wrapper or a test fake does.
type opaqueConn struct{ controller.AgentConn }

// TestCallManyBatchesByConnType pins the one I/O rule: the loop reads from the
// connection's type — not from any option — whether agents share a wire. Over
// raw MuxConns a slot costs one batch frame per connection per phase,
// whatever partition count the deprecated adapter was asked for; over wrapped
// conns it costs one call per live agent per phase. That holds for every
// phase: gather and scatter, a restored loop's first slot, which rewinds
// every agent in one restore phase, and a slot that probes the Dead agents of
// a whole wire, which pings them in one phase and pushes their shadows in
// one more.
func TestCallManyBatchesByConnType(t *testing.T) {
	const slots = 6
	for _, tc := range []struct {
		name    string
		lc      loopCtor
		wrapped bool
	}{
		{"controller.New", loopCtors[0], false},
		{"controller.New/wrapped", loopCtors[0], true},
		{"controlplane.New/P=3", planeCtor("controlplane.New/P=3", 3, false), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, err := sim.NewReferenceInputs(2012, slots+6)
			if err != nil {
				t.Fatal(err)
			}
			n := in.Cluster.N()
			agents := make([]*agent.Agent, n)
			for i := range agents {
				if agents[i], err = agent.New(agent.Config{
					Cluster: in.Cluster, DataCenter: i, Price: in.Prices[i], Availability: in.Availability,
				}); err != nil {
					t.Fatal(err)
				}
			}
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var frames, handled atomic.Int64
			down := make([]atomic.Bool, n)
			srv := transport.NewMuxServer(frameCountingListener{Listener: lis, frames: &frames},
				func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
					if down[target].Load() {
						return dst, errors.New("agent down")
					}
					handled.Add(1)
					return agents[target].AppendReply(dst, kind, body)
				})
			go srv.Serve()
			defer srv.Close()

			// Two connections: sites 0..n-2 share the first, the last site has
			// its own.
			const wires = 2
			clients := make([]*transport.MuxClient, wires)
			for k := range clients {
				if clients[k], err = transport.DialMux(srv.Addr(), 5*time.Second); err != nil {
					t.Fatal(err)
				}
				defer clients[k].Close()
			}
			conns := make([]controller.AgentConn, n)
			for i := range conns {
				conns[i] = clients[i/(n-1)].Agent(i)
				if tc.wrapped {
					conns[i] = opaqueConn{conns[i]}
				}
			}
			build := func(policy controller.FailurePolicy) *controller.Controller {
				ct, err := tc.lc.build(in.Cluster, conns, policy, nil)
				if err != nil {
					t.Fatal(err)
				}
				return ct
			}
			// A phase calls some agents riding some wires: it costs one frame
			// per wire, or one per agent over wrapped conns. run runs slots
			// [from, to) and checks the frames the server answered and the
			// requests the agents handled against the phases the slots ran.
			type phase struct{ agents, wires int64 }
			all, firstWire := phase{int64(n), wires}, phase{int64(n - 1), 1}
			run := func(what string, ct *controller.Controller, from, to int, phases ...phase) {
				t.Helper()
				f0, h0 := frames.Load(), handled.Load()
				for tt := from; tt < to; tt++ {
					if _, _, _, err := ct.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
						t.Fatalf("%s: slot %d: %v", what, tt, err)
					}
				}
				var wantFrames, wantHandled int64
				for _, p := range phases {
					wantHandled += p.agents
					if tc.wrapped {
						wantFrames += p.agents
					} else {
						wantFrames += p.wires
					}
				}
				if got := frames.Load() - f0; got != wantFrames {
					t.Errorf("%s: server answered %d frames, want %d", what, got, wantFrames)
				}
				if got := handled.Load() - h0; got != wantHandled {
					t.Errorf("%s: agents handled %d requests, want %d", what, got, wantHandled)
				}
			}

			// Gather and scatter, slot after slot.
			var phases []phase
			for range 2 * slots {
				phases = append(phases, all)
			}
			ct := build(controller.Strict)
			run("healthy slots", ct, 0, slots, phases...)

			// A loop restored from ct's checkpoint rewinds every agent, then
			// gathers and scatters.
			state, err := ct.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			restored := build(controller.Strict)
			if err := restored.RestoreState(state); err != nil {
				t.Fatal(err)
			}
			run("restored loop's first slot", restored, slots, slots+1, all, all, all)

			// Under Degrade, the agents on the first wire go dark until three
			// failures make them Dead; the next slot pings them and pushes
			// their shadows in one frame each on that wire.
			dg := build(controller.Degrade)
			run("first Degrade slot", dg, slots+1, slots+2, all, all)
			for i := 0; i < n-1; i++ {
				down[i].Store(true)
			}
			for tt := slots + 2; tt < slots+5; tt++ {
				if _, _, _, err := dg.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
					t.Fatalf("slot %d: %v", tt, err)
				}
			}
			for i := 0; i < n-1; i++ {
				if h := dg.Health()[i]; h != controller.Dead {
					t.Fatalf("agent %d is %v after three dark slots, want dead", i, h)
				}
				down[i].Store(false)
			}
			run("probing slot", dg, slots+5, slots+6, firstWire, firstWire, all, all)
			for i, h := range dg.Health() {
				if h != controller.Healthy {
					t.Errorf("agent %d is %v after the probing slot, want healthy", i, h)
				}
			}
		})
	}
}

// overlapGate is the rendezvous of a mixed fleet's two sides — side 0 the
// agents behind a mux wire, side 1 those on per-agent conns. It counts the
// calls each side has started and holds a call of phase k until the other
// side has started one of phase k too.
type overlapGate struct {
	perPhase [2]int64
	started  [2]atomic.Int64
}

func (g *overlapGate) meet(side int) error {
	phase := (g.started[side].Add(1) - 1) / g.perPhase[side]
	other := 1 - side
	for deadline := time.Now().Add(5 * time.Second); g.started[other].Load() <= phase*g.perPhase[other]; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("side %d, phase %d: the other side never started", side, phase)
		}
	}
	return nil
}

// gatedConn is a per-agent connection that meets the gate before each call.
type gatedConn struct {
	inner controller.AgentConn
	gate  *overlapGate
}

func (g gatedConn) Call(kind string, reqBody, respBody any) error {
	if err := g.gate.meet(1); err != nil {
		return err
	}
	return g.inner.Call(kind, reqBody, respBody)
}

// TestCallManyOverlapsMuxAndPerAgentCalls pins the send-then-await fan-out on
// a fleet that mixes the two kinds of conn: in every phase the per-agent calls
// run while the wire's batch is in flight. Each side's handler waits for the
// other side to have started the same phase, so a loop that ran one side
// after the other could not finish a slot.
func TestCallManyOverlapsMuxAndPerAgentCalls(t *testing.T) {
	const slots = 4
	in, err := sim.NewReferenceInputs(2012, slots)
	if err != nil {
		t.Fatal(err)
	}
	n := in.Cluster.N()
	agents := make([]*agent.Agent, n)
	for i := range agents {
		if agents[i], err = agent.New(agent.Config{
			Cluster: in.Cluster, DataCenter: i, Price: in.Prices[i], Availability: in.Availability,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Site 0 rides the wire; the others are called one by one.
	gate := &overlapGate{perPhase: [2]int64{1, int64(n - 1)}}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewMuxServer(lis, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		if target == 0 {
			if err := gate.meet(0); err != nil {
				return nil, err
			}
		}
		return agents[target].AppendReply(dst, kind, body)
	})
	go srv.Serve()
	defer srv.Close()
	cli, err := transport.DialMux(srv.Addr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	conns := make([]controller.AgentConn, n)
	conns[0] = cli.Agent(0)
	for i := 1; i < n; i++ {
		conns[i] = gatedConn{inner: opaqueConn{cli.Agent(i)}, gate: gate}
	}
	ct, err := loopCtors[0].build(in.Cluster, conns, controller.Strict, nil)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < slots; tt++ {
		if _, _, _, err := ct.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
	}
	if got, want := gate.started[0].Load(), int64(2*slots); got != want {
		t.Errorf("the wire's agent was called %d times, want %d", got, want)
	}
}
