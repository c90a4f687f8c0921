package controller

import (
	"net"
	"testing"
	"time"

	"grefar/internal/agent"
	"grefar/internal/core"
	"grefar/internal/sim"
	"grefar/internal/transport"
)

// TestControllerSurfacesDeadAgent injects a mid-run agent failure and checks
// the controller aborts with a clear error instead of hanging or corrupting
// state.
func TestControllerSurfacesDeadAgent(t *testing.T) {
	const slots = 48
	in, err := sim.NewReferenceInputs(2012, slots)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]AgentConn, in.Cluster.N())
	var servers []*transport.MuxServer
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
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := a.Serve(lis)
		servers = append(servers, srv)
		cli, err := transport.DialMux(srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		conns[i] = cli.Agent(0)
	}
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()

	g, err := core.New(in.Cluster, core.Config{V: 7.5})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := New(in.Cluster, g, conns)
	if err != nil {
		t.Fatal(err)
	}

	// A few healthy slots first.
	for s := 0; s < 5; s++ {
		if _, _, _, err := ct.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
			t.Fatalf("healthy slot %d: %v", s, err)
		}
	}

	// Kill agent 1 and expect the next slot to fail fast.
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, _, err := ct.RunSlot(5, in.Workload.Arrivals(5)); err == nil {
		t.Error("slot with a dead agent succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("failure detection took too long")
	}
}

// TestControllerRecoversWithReconnectClient restarts an agent between slots
// and shows that reconnecting transports let the control loop carry on (the
// restarted agent has an empty local queue — acceptable loss semantics for a
// site that genuinely rebooted).
func TestControllerRecoversWithReconnectClient(t *testing.T) {
	const slots = 24
	in, err := sim.NewReferenceInputs(2012, slots)
	if err != nil {
		t.Fatal(err)
	}
	mkAgent := func(i int) *agent.Agent {
		a, err := agent.New(agent.Config{
			Cluster:      in.Cluster,
			DataCenter:   i,
			Price:        in.Prices[i],
			Availability: in.Availability,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	conns := make([]AgentConn, in.Cluster.N())
	servers := make([]*transport.MuxServer, in.Cluster.N())
	addrs := make([]string, in.Cluster.N())
	for i := 0; i < in.Cluster.N(); i++ {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = mkAgent(i).Serve(lis)
		addrs[i] = servers[i].Addr()
		rc := transport.NewReconnectClient(addrs[i], time.Second, 3)
		defer rc.Close()
		conns[i] = rc
	}
	defer func() {
		for _, s := range servers {
			if s != nil {
				s.Close()
			}
		}
	}()

	g, err := core.New(in.Cluster, core.Config{V: 7.5})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := New(in.Cluster, g, conns)
	if err != nil {
		t.Fatal(err)
	}

	for s := 0; s < 10; s++ {
		if _, _, _, err := ct.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
			t.Fatalf("slot %d: %v", s, err)
		}
	}

	// Restart agent 2 on the same address between slots.
	if err := servers[2].Close(); err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	servers[2] = mkAgent(2).Serve(lis)

	for s := 10; s < slots; s++ {
		if _, _, _, err := ct.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
			t.Fatalf("slot %d after restart: %v", s, err)
		}
	}
}
