package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/fairness"
	"grefar/internal/price"
	"grefar/internal/sim"
	"grefar/internal/tariff"
	"grefar/internal/transport"
	"grefar/internal/workload"
)

// tcpAgents serves one agent per site of in on loopback TCP and returns mux
// connections to them, plus the agents.
func tcpAgents(t *testing.T, in sim.Inputs) ([]controller.AgentConn, []*agent.Agent) {
	t.Helper()
	c := in.Cluster
	conns := make([]controller.AgentConn, c.N())
	agents := make([]*agent.Agent, c.N())
	for i := range conns {
		a, err := agent.New(agent.Config{Cluster: c, DataCenter: i, Price: in.Prices[i], Availability: in.Availability})
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := a.Serve(lis)
		cli, err := transport.DialMux(srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close(); srv.Close() })
		conns[i], agents[i] = cli.Agent(0), a
	}
	return conns, agents
}

// referenceDeployment is the reference deployment's environment: agents
// materialize 4096 slots of prices and availability (grefar-agent's default
// horizon) and the arrivals are the 2000-slot reference workload.
func referenceDeployment(t *testing.T, slots int) sim.Inputs {
	t.Helper()
	in, err := sim.NewReferenceInputs(2012, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if in.Workload, err = workload.NewReferenceWorkload(2013, in.Cluster, slots); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestSessionOnAgentsMatchesReference runs the reference deployment (seed
// 2012, 2000 slots, V=7.5, beta=100) as a serving session on three TCP
// agents, its arrivals from the reference generator: Result must read the
// reference numbers and equal the single-process simulator's exactly.
func TestSessionOnAgentsMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("2000 distributed slots skipped in -short mode")
	}
	const slots = 2000
	sched := core.Config{V: 7.5, Beta: 100}
	in := referenceDeployment(t, slots)
	conns, _ := tcpAgents(t, in)
	s, err := NewSession(SessionConfig{Inputs: in, Scheduler: sched, Agents: conns})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < slots; k++ {
		if _, err := s.Tick(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Result()

	in2 := referenceDeployment(t, slots)
	g, err := core.New(in2.Cluster, sched)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Run(in2, g, sim.Options{Slots: slots, ValidateActions: true})
	if err != nil {
		t.Fatal(err)
	}

	ref := fmt.Sprintf("%.3f / %.4f / %.3f %.3f %.3f",
		got.AvgEnergy, got.AvgFairness, got.AvgLocalDelay[0], got.AvgLocalDelay[1], got.AvgLocalDelay[2])
	if ref != "27.405 / -0.1051 / 1.470 1.323 3.300" {
		t.Errorf("reference numbers read %s", ref)
	}
	if got.Slots != slots || got.SchedulerName != want.SchedulerName {
		t.Errorf("result covers %d slots of %q, want %d of %q", got.Slots, got.SchedulerName, slots, want.SchedulerName)
	}
	// One account bills, scores and sums both runs: every field the engine
	// fills, histograms included, is the agents' bit for bit.
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for k := 0; k < gv.NumField(); k++ {
		if !reflect.DeepEqual(gv.Field(k).Interface(), wv.Field(k).Interface()) {
			t.Errorf("%s: agents %v, simulator %v", gv.Type().Field(k).Name, gv.Field(k).Interface(), wv.Field(k).Interface())
		}
	}
}

// TestCheckpointRestoresAcrossExecutors restores an in-process session's
// checkpoint into a session on fresh TCP agents: the first slot pushes the
// checkpoint's local queues onto the agents, and the continuation repeats
// the in-process trajectory and lands the agents on its local queues.
func TestCheckpointRestoresAcrossExecutors(t *testing.T) {
	const split, slots = 10, 20
	cfg := testConfig(t, core.Config{V: 7.5, Beta: 100})
	schedule := arrivalSchedule(slots, cfg.Inputs.Cluster.J())
	local, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveSession(t, local, schedule, 0, split)
	payload, err := local.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	_, want := driveSession(t, local, schedule, split, slots)

	conns, agents := tcpAgents(t, cfg.Inputs)
	cfg.Agents = conns
	remote, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.RestoreState(payload); err != nil {
		t.Fatal(err)
	}
	_, got := driveSession(t, remote, schedule, split, slots)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("agents' trajectory %v, in-process %v", got, want)
	}
	final := local.Lengths()
	for i, a := range agents {
		if lens := a.QueueLens(); !reflect.DeepEqual(lens, final.Local[i]) {
			t.Errorf("agent %d holds %v, in-process site holds %v", i, lens, final.Local[i])
		}
	}
}

// TestSessionOnAgentsRefusesEngineOnlyInputs pins that what the loop on
// agents does not do — bill a tariff or a base load, filter arrivals, score
// another fairness function — is refused, not ignored.
func TestSessionOnAgentsRefusesEngineOnlyInputs(t *testing.T) {
	base := testConfig(t, core.Config{V: 7.5})
	base.Agents, _ = tcpAgents(t, base.Inputs)
	weights := make([]float64, base.Inputs.Cluster.M())
	for m := range weights {
		weights[m] = 1
	}
	fair, err := fairness.NewAlphaFair(2, weights)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := tariff.NewQuadratic(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		set  func(cfg *SessionConfig)
	}{
		{"tariff", func(cfg *SessionConfig) { cfg.Inputs.Tariff = quad }},
		{"base load", func(cfg *SessionConfig) {
			cfg.Inputs.BaseLoad = []price.Source{price.Constant(1), price.Constant(1), price.Constant(1)}
		}},
		{"admission", func(cfg *SessionConfig) { cfg.Sim.Admission = &sim.ThresholdAdmission{} }},
		{"fairness", func(cfg *SessionConfig) { cfg.Inputs.Fairness = fair }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.set(&cfg)
			if _, err := NewSession(cfg); !errors.Is(err, sim.ErrBadInputs) {
				t.Fatalf("got %v, want an error wrapping sim.ErrBadInputs", err)
			}
		})
	}
}
