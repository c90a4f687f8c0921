package controller

import (
	"context"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"grefar/internal/agent"
	"grefar/internal/core"
	"grefar/internal/model"
	"grefar/internal/sched"
	"grefar/internal/sim"
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
// control loop (controller + agents) must produce bit-identical metrics to
// the single-process simulator on the same inputs and scheduler, because the
// protocol preserves the exact slot semantics.
func TestDistributedMatchesSimulator(t *testing.T) {
	const slots = 24 * 14
	for _, overTCP := range []bool{false, true} {
		in, conns, cleanup := buildSystem(t, slots, overTCP)

		g1, err := core.New(in.Cluster, core.Config{V: 7.5, Beta: 100})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := New(in.Cluster, g1, conns)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := ct.Run(slots, in.Workload)
		if err != nil {
			t.Fatalf("overTCP=%v: %v", overTCP, err)
		}
		cleanup()

		in2, err := sim.NewReferenceInputs(2012, slots)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := core.New(in2.Cluster, core.Config{V: 7.5, Beta: 100})
		if err != nil {
			t.Fatal(err)
		}
		local, err := sim.Run(in2, g2, sim.Options{Slots: slots, ValidateActions: true})
		if err != nil {
			t.Fatal(err)
		}

		if math.Abs(dist.AvgEnergy-local.AvgEnergy) > 1e-9 {
			t.Errorf("overTCP=%v: energy %v != %v", overTCP, dist.AvgEnergy, local.AvgEnergy)
		}
		if math.Abs(dist.AvgFairness-local.AvgFairness) > 1e-9 {
			t.Errorf("overTCP=%v: fairness %v != %v", overTCP, dist.AvgFairness, local.AvgFairness)
		}
		for i := range dist.AvgLocalDelay {
			if math.Abs(dist.AvgLocalDelay[i]-local.AvgLocalDelay[i]) > 1e-9 {
				t.Errorf("overTCP=%v: delay[%d] %v != %v", overTCP, i, dist.AvgLocalDelay[i], local.AvgLocalDelay[i])
			}
			if math.Abs(dist.AvgWorkPerDC[i]-local.AvgWorkPerDC[i]) > 1e-9 {
				t.Errorf("overTCP=%v: work[%d] %v != %v", overTCP, i, dist.AvgWorkPerDC[i], local.AvgWorkPerDC[i])
			}
		}
		if math.Abs(dist.TotalProcessed-local.TotalProcessed) > 1e-6 {
			t.Errorf("overTCP=%v: processed %v != %v", overTCP, dist.TotalProcessed, local.TotalProcessed)
		}
	}
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
	res, err := ct.Run(slots, in.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgLocalDelay[0] < 0.9 || res.AvgLocalDelay[0] > 1.5 {
		t.Errorf("Always delay = %v, want ~1", res.AvgLocalDelay[0])
	}
	if res.TotalProcessed <= 0 {
		t.Error("nothing processed")
	}
}

func TestRunValidation(t *testing.T) {
	in, conns, cleanup := buildSystem(t, 5, false)
	defer cleanup()
	g, _ := core.New(in.Cluster, core.Config{V: 1})
	ct, err := New(in.Cluster, g, conns)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Run(0, in.Workload); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := ct.Run(5, nil); err == nil {
		t.Error("nil workload accepted")
	}
}

// TestControllerSnapshotRestore checkpoints the central queues mid-run and
// resumes on a replacement loop, at one partition and at two: the partitioned
// loop is the same loop, so it resumes the same way.
func TestControllerSnapshotRestore(t *testing.T) {
	const slots = 10
	for _, parts := range []int{1, 2} {
		in, conns, cleanup := buildSystem(t, slots, false)
		defer cleanup()
		build := func() *Controller {
			ct, err := NewPartitioned(in.Cluster, conns, Partitioning{
				Partitions: parts,
				NewScheduler: func() (sched.Scheduler, error) {
					return core.New(in.Cluster, core.Config{V: 7.5})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			return ct
		}
		ct := build()
		for s := 0; s < 5; s++ {
			if _, _, _, err := ct.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
				t.Fatal(err)
			}
		}
		snap, err := ct.Snapshot()
		if err != nil {
			t.Fatal(err)
		}

		// A replacement controller (same agents) resumes with identical
		// central backlogs.
		ct2 := build()
		if err := ct2.Restore(snap); err != nil {
			t.Fatal(err)
		}
		a, b := ct.CentralLens(), ct2.CentralLens()
		for j := range a {
			if a[j] != b[j] {
				t.Errorf("P=%d central[%d]: %v != %v", parts, j, a[j], b[j])
			}
		}
		if _, _, _, err := ct2.RunSlot(5, in.Workload.Arrivals(5)); err != nil {
			t.Fatalf("P=%d: restored controller cannot continue: %v", parts, err)
		}
		if err := ct2.Restore([]byte("junk")); err == nil {
			t.Errorf("P=%d: junk snapshot accepted", parts)
		}
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
