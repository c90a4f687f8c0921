package controlplane

import (
	"bytes"
	"testing"

	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/invariant"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// localConn adapts an in-process agent to controller.AgentConn without TCP,
// mirroring the controller package's unit-test harness.
type localConn struct {
	a interface {
		AppendReply(dst []byte, kind string, body []byte) ([]byte, error)
	}
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

// buildSystem starts one in-process agent per site of in's cluster.
func buildSystem(t *testing.T, in sim.Inputs) []controller.AgentConn {
	t.Helper()
	conns := make([]controller.AgentConn, in.Cluster.N())
	for i := range conns {
		a, err := agent.New(agent.Config{
			Cluster:      in.Cluster,
			DataCenter:   i,
			Price:        in.Prices[i],
			Availability: in.Availability,
		})
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = localConn{a: a}
	}
	return conns
}

func referenceInputs(t *testing.T, slots int) sim.Inputs {
	t.Helper()
	in, err := sim.NewReferenceInputs(2012, slots)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func grefarFactory(in sim.Inputs) func() (sched.Scheduler, error) {
	return func() (sched.Scheduler, error) {
		return core.New(in.Cluster, core.Config{V: 7.5})
	}
}

// TestPartitionedMatchesSingle pins the adapter: New at the largest partition
// count the reference cluster admits must reproduce controller.New's event
// trace byte for byte, with every deprecated counter at zero.
func TestPartitionedMatchesSingle(t *testing.T) {
	const slots = 24
	in := referenceInputs(t, slots)

	run := func(build func(conns []controller.AgentConn, obs telemetry.SlotObserver) (*Plane, error)) []byte {
		var buf bytes.Buffer
		loop, err := build(buildSystem(t, in), telemetry.NewJSONLObserver(&buf))
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0; tt < slots; tt++ {
			if _, _, _, err := loop.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
				t.Fatalf("slot %d: %v", tt, err)
			}
		}
		for _, st := range loop.Stats() {
			if st.Conflicts != 0 || st.Retries != 0 || st.Commits != 0 || st.Forced != 0 {
				t.Errorf("counters %+v, want zero", st)
			}
		}
		return buf.Bytes()
	}

	single := run(func(conns []controller.AgentConn, obs telemetry.SlotObserver) (*Plane, error) {
		g, err := grefarFactory(in)()
		if err != nil {
			return nil, err
		}
		return controller.New(in.Cluster, g, conns, controller.WithObserver(obs))
	})
	adapter := run(func(conns []controller.AgentConn, obs telemetry.SlotObserver) (*Plane, error) {
		return New(in.Cluster, conns, Config{
			Partitions:   in.Cluster.N(),
			NewScheduler: grefarFactory(in),
			Observer:     obs,
		})
	})
	if diff := invariant.DiffJSONL(adapter, single); diff != "" {
		t.Fatalf("adapter trace deviates from controller.New's:\n%s", diff)
	}
}

// TestNewValidation pins the constructor's error surface.
func TestNewValidation(t *testing.T) {
	in := referenceInputs(t, 8)
	conns := buildSystem(t, in)
	fac := grefarFactory(in)
	if _, err := New(in.Cluster, conns, Config{Partitions: 0, NewScheduler: fac}); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := New(in.Cluster, conns, Config{Partitions: in.Cluster.N() + 1, NewScheduler: fac}); err == nil {
		t.Error("more partitions than data centers accepted")
	}
	if _, err := New(in.Cluster, conns, Config{Partitions: 2}); err == nil {
		t.Error("nil scheduler factory accepted")
	}
	if _, err := New(in.Cluster, conns[:1], Config{Partitions: 1, NewScheduler: fac}); err == nil {
		t.Error("missing agent conns accepted")
	}
	if _, err := New(in.Cluster, conns, Config{Partitions: 2, NewScheduler: fac}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
