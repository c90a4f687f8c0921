package controller

import (
	"bytes"
	"encoding/json"
	"flag"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"grefar/internal/agent"
	"grefar/internal/core"
	"grefar/internal/invariant"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
	"grefar/internal/transport/chaos"
)

var updateChaosGolden = flag.Bool("update", false, "rewrite testdata/golden_chaos.jsonl")

const (
	chaosSeed  = 2012
	chaosSlots = 40
)

// chaosPlan kills two of the three reference agents for disjoint slot
// windows and sprinkles seeded call drops on top — the acceptance scenario:
// agents leave mid-run and come back on the same address.
func chaosPlan() *chaos.Plan {
	return &chaos.Plan{
		Seed: chaosSeed,
		Drop: 0.05,
		Windows: []chaos.Window{
			{Agent: 1, From: 8, To: 14},
			{Agent: 2, From: 20, To: 26},
		},
	}
}

// runChaosTrace runs the reference workload under the Degrade policy with the
// plan's faults injected on every agent connection, the invariant checker
// verifying every applied slot, and a trace recorder pinning the event
// stream, through a loop of the given partition count (1 is what New builds).
// It returns the serialized JSONL trace and the controller.
func runChaosTrace(t *testing.T, plan *chaos.Plan, reg *telemetry.Registry, parts int) ([]byte, *Controller) {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	in, err := sim.NewReferenceInputs(chaosSeed, chaosSlots)
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]AgentConn, in.Cluster.N())
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
		conns[i] = plan.Wrap(localConn{a: a}, i)
	}
	rec := &invariant.TraceRecorder{}
	ck := invariant.NewChecker(in.Cluster, invariant.CheckerOptions{})
	opts := []Option{
		WithObserver(telemetry.Multi(rec, ck)),
		WithFailurePolicy(Degrade),
	}
	if reg != nil {
		opts = append(opts, WithHealthMetrics(reg))
	}
	ct, err := NewPartitioned(in.Cluster, conns, Partitioning{
		Partitions: parts,
		NewScheduler: func() (sched.Scheduler, error) {
			return core.New(in.Cluster, core.Config{V: 7.5})
		},
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < chaosSlots; s++ {
		if _, _, _, err := ct.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
			t.Fatalf("degraded slot %d failed: %v", s, err)
		}
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("invariant checker rejected the degraded run: %v", err)
	}
	if ck.Slots() != chaosSlots {
		t.Fatalf("checker saw %d applied slots, want %d", ck.Slots(), chaosSlots)
	}
	out, err := rec.MarshalJSONL()
	if err != nil {
		t.Fatal(err)
	}
	return out, ct
}

// TestDegradedModeSurvivesChaos is the acceptance scenario: under the Degrade
// policy with seeded chaos killing two of the three agents for slot windows
// mid-run, every slot completes, the invariant checker passes every applied
// slot, arrivals keep being admitted while sites are down, and both agents
// recover to Healthy within a bounded number of slots after their windows end.
func TestDegradedModeSurvivesChaos(t *testing.T) {
	reg := telemetry.NewRegistry()
	trace, ct := runChaosTrace(t, chaosPlan(), reg, 1)

	for i, h := range ct.Health() {
		if h != Healthy {
			t.Errorf("agent %d ended the run %v, want healthy", i, h)
		}
	}
	if v := ct.tracker.metrics.degraded.Value(); v < 10 {
		t.Errorf("degraded-slot counter = %v, want >= 10 (two 6-slot windows hit)", v)
	}
	if v := ct.tracker.metrics.failures.With(dcLabel(1)).Value(); v == 0 {
		t.Error("agent 1 failure counter never incremented")
	}

	// Decode the trace: every slot present, partition windows marked degraded,
	// arrivals admitted on degraded slots, and recovery bounded — an agent's
	// masking must not outlast its window by more than one slot (the probe
	// slot that completes the rejoin).
	events := parseTrace(t, trace)
	if len(events) != chaosSlots {
		t.Fatalf("trace has %d events, want %d", len(events), chaosSlots)
	}
	degradedBy := make(map[int][]int) // agent -> slots masked
	for s, ev := range events {
		if ev.Slot != s {
			t.Fatalf("event %d has slot %d", s, ev.Slot)
		}
		for _, i := range ev.Degraded {
			degradedBy[i] = append(degradedBy[i], s)
		}
		if ev.Arrived == 0 && s < chaosSlots {
			// The reference workload has nonzero arrivals every slot; a zero
			// here would mean a degraded slot dropped admissions.
			t.Errorf("slot %d admitted no arrivals", s)
		}
	}
	for _, w := range chaosPlan().Windows {
		slots := degradedBy[w.Agent]
		if len(slots) == 0 {
			t.Fatalf("agent %d never masked despite window %+v", w.Agent, w)
		}
		// Bounded recovery: the contiguous masked stretch must end within one
		// slot of the window closing. (Later isolated masked slots are the
		// plan's 5% call drops, not lingering damage from the partition.)
		recovered := w.To
		for containsInt(slots, recovered) {
			recovered++
		}
		if recovered > w.To+1 {
			t.Errorf("agent %d still masked through slot %d, window ended at %d (recovery not bounded)", w.Agent, recovered-1, w.To)
		}
		for s := w.From; s < w.To; s++ {
			if !containsInt(slots, s) {
				t.Errorf("agent %d not masked at in-window slot %d", w.Agent, s)
			}
		}
	}
}

func parseTrace(t *testing.T, raw []byte) []telemetry.SlotEvent {
	t.Helper()
	var events []telemetry.SlotEvent
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev telemetry.SlotEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		events = append(events, ev)
	}
	return events
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestGoldenChaosTrace pins the full event stream of the chaos run: same
// seed, same faults, byte-identical trace, run after run. Regenerate
// deliberately with `go test ./internal/controller -run TestGoldenChaos -update`.
func TestGoldenChaosTrace(t *testing.T) {
	got, _ := runChaosTrace(t, chaosPlan(), nil, 1)
	path := filepath.Join("testdata", "golden_chaos.jsonl")
	if *updateChaosGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden chaos trace (regenerate with -update): %v", err)
	}
	if diff := invariant.DiffJSONL(got, want); diff != "" {
		t.Errorf("chaos trace deviates from %s:\n%s", path, diff)
	}

	// And the run must be deterministic in-process too.
	again, _ := runChaosTrace(t, chaosPlan(), nil, 1)
	if diff := invariant.DiffJSONL(again, got); diff != "" {
		t.Errorf("same-seed chaos reruns diverge:\n%s", diff)
	}
}

// TestPartitionedChaosMatchesGolden composes partitions with chaos: the
// acceptance scenario run through a two- and a three-partition loop must
// reproduce the single controller's golden chaos trace byte for byte, with
// the invariant checker clean on every applied slot. The partitions only
// split the agent I/O; the loop decides once per slot at any count.
func TestPartitionedChaosMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_chaos.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{2, 3} {
		got, _ := runChaosTrace(t, chaosPlan(), nil, parts)
		if diff := invariant.DiffJSONL(got, want); diff != "" {
			t.Errorf("P=%d chaos trace deviates from the golden trace:\n%s", parts, diff)
		}
	}
}

// TestRejoinMatchesMaskedTrace is the strongest recovery statement: a real
// TCP run where an agent process is killed mid-run and restarted on the same
// address must produce a byte-identical event trace to a run where that
// outage window was injected as a chaos partition from the start. The health
// machine, the shadow ledgers, and the restore handshake make the recovery
// path indistinguishable from planned masking.
func TestRejoinMatchesMaskedTrace(t *testing.T) {
	const (
		slots      = 24
		downAgent  = 2
		outageFrom = 6
		outageTo   = 12
	)

	// Run A: real TCP, agent killed and restarted between slot boundaries.
	traceA := func() []byte {
		in, err := sim.NewReferenceInputs(chaosSeed, slots)
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
			rc := transport.NewReconnectClient(addrs[i], 500*time.Millisecond, 2)
			defer rc.Close()
			conns[i] = rc
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
		rec := &invariant.TraceRecorder{}
		ck := invariant.NewChecker(in.Cluster, invariant.CheckerOptions{})
		ct, err := New(in.Cluster, g, conns,
			WithObserver(telemetry.Multi(rec, ck)), WithFailurePolicy(Degrade))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < slots; s++ {
			if s == outageFrom {
				if err := servers[downAgent].Close(); err != nil {
					t.Fatal(err)
				}
			}
			if s == outageTo {
				lis, err := net.Listen("tcp", addrs[downAgent])
				if err != nil {
					t.Fatal(err)
				}
				servers[downAgent] = mkAgent(downAgent).Serve(lis)
			}
			if _, _, _, err := ct.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
				t.Fatalf("TCP run slot %d: %v", s, err)
			}
		}
		if err := ck.Err(); err != nil {
			t.Fatalf("checker rejected the TCP outage run: %v", err)
		}
		for i, h := range ct.Health() {
			if h != Healthy {
				t.Fatalf("TCP run: agent %d ended %v", i, h)
			}
		}
		out, err := rec.MarshalJSONL()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}()

	// Run B: in-process, with the same outage injected as a chaos partition
	// window known from the start.
	traceB := func() []byte {
		in, err := sim.NewReferenceInputs(chaosSeed, slots)
		if err != nil {
			t.Fatal(err)
		}
		plan := &chaos.Plan{Seed: 1, Windows: []chaos.Window{
			{Agent: downAgent, From: outageFrom, To: outageTo},
		}}
		conns := make([]AgentConn, in.Cluster.N())
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
			conns[i] = plan.Wrap(localConn{a: a}, i)
		}
		g, err := core.New(in.Cluster, core.Config{V: 7.5})
		if err != nil {
			t.Fatal(err)
		}
		rec := &invariant.TraceRecorder{}
		ct, err := New(in.Cluster, g, conns,
			WithObserver(rec), WithFailurePolicy(Degrade))
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < slots; s++ {
			if _, _, _, err := ct.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
				t.Fatalf("masked run slot %d: %v", s, err)
			}
		}
		out, err := rec.MarshalJSONL()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}()

	if diff := invariant.DiffJSONL(traceA, traceB); diff != "" {
		t.Errorf("kill/restart trace deviates from masked-from-start trace:\n%s", diff)
	}
}
