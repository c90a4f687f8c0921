package controller_test

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"net"
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
// system (one slot fails at scatter, then is retried) side by side with a
// clean single controller on identical inputs, with the invariant checker
// attached to the faulty run: the abort must leave the central queues exactly
// as it found them, the checker's conservation and flow rules must hold on
// every applied slot, and the retried run must be byte-identical to the clean
// one.
func TestStrictAllocateAbortConservesJobs(t *testing.T) {
	const slots, failAt = 12, 6
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

		for tt := 0; tt < slots; tt++ {
			arrivals := inClean.Workload.Arrivals(tt)
			_, _, acksClean, err := ctClean.RunSlot(tt, arrivals)
			if err != nil {
				t.Fatalf("clean slot %d: %v", tt, err)
			}

			if tt == failAt {
				before := ctFaulty.CentralLens()
				fail.Store(true)
				if _, _, _, err := ctFaulty.RunSlot(tt, arrivals); err == nil {
					t.Fatalf("slot %d: scatter outage did not abort the strict slot", tt)
				}
				fail.Store(false)
				after := ctFaulty.CentralLens()
				for j := range before {
					if after[j] != before[j] {
						t.Fatalf("slot %d abort moved central queue %d: %v -> %v (popped jobs not restored)",
							tt, j, before[j], after[j])
					}
				}
			}
			_, _, acksFaulty, err := ctFaulty.RunSlot(tt, arrivals)
			if err != nil {
				t.Fatalf("faulty slot %d (retry): %v", tt, err)
			}
			for i := range acksClean {
				if acksClean[i].Energy != acksFaulty[i].Energy {
					t.Fatalf("slot %d agent %d: energy %v != clean %v", tt, i, acksFaulty[i].Energy, acksClean[i].Energy)
				}
				for j := range acksClean[i].Processed {
					if acksClean[i].Processed[j] != acksFaulty[i].Processed[j] {
						t.Fatalf("slot %d agent %d job %d: processed %v != clean %v",
							tt, i, j, acksFaulty[i].Processed[j], acksClean[i].Processed[j])
					}
				}
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
// raw MuxConns a slot costs one batch frame per connection per phase (gather,
// scatter), whatever partition count the deprecated adapter was asked for;
// over wrapped conns it costs one call per live agent per phase.
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
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var frames, handled atomic.Int64
			srv := transport.NewMuxServer(frameCountingListener{Listener: lis, frames: &frames},
				func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
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
			ct, err := tc.lc.build(in.Cluster, conns, controller.Strict, nil)
			if err != nil {
				t.Fatal(err)
			}
			for tt := 0; tt < slots; tt++ {
				if _, _, _, err := ct.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
					t.Fatalf("slot %d: %v", tt, err)
				}
			}
			wantFrames := int64(slots * 2 * wires)
			if tc.wrapped {
				wantFrames = int64(slots * 2 * n)
			}
			if frames.Load() != wantFrames {
				t.Errorf("server answered %d frames over %d slots, want %d", frames.Load(), slots, wantFrames)
			}
			if want := int64(slots * 2 * n); handled.Load() != want {
				t.Errorf("agents handled %d requests, want %d", handled.Load(), want)
			}
		})
	}
}
