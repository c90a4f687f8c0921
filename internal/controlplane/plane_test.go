package controlplane

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/hollow"
	"grefar/internal/invariant"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_partitioned.jsonl")

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

// TestPartitionedMatchesSingle pins the equivalence that makes the
// partitioned plane trustworthy: deciding once from the slot-initial
// backlogs, with only probe, gather and scatter split P ways, a P-partition
// plane must reproduce the single controller's event trace byte for byte at
// every partition count — on the reference cluster, whose trace must also
// match the checked-in golden one, and on an eight-site hollow cluster, where
// P reaches 4 — with every commit counter at zero.
// Regenerate deliberately with
// `go test ./internal/controlplane -run TestPartitionedMatchesSingle -update`.
func TestPartitionedMatchesSingle(t *testing.T) {
	const slots = 24

	// run drives a fresh system over in for the horizon: the single
	// controller when parts is 0, a P-partition plane otherwise.
	run := func(in sim.Inputs, parts int) []byte {
		conns := buildSystem(t, in)
		var buf bytes.Buffer
		obs := telemetry.NewJSONLObserver(&buf)
		var loop *Plane
		var err error
		if parts == 0 {
			var g sched.Scheduler
			if g, err = grefarFactory(in)(); err == nil {
				loop, err = controller.New(in.Cluster, g, conns, controller.WithObserver(obs))
			}
		} else {
			loop, err = New(in.Cluster, conns, Config{
				Partitions:   parts,
				NewScheduler: grefarFactory(in),
				Observer:     obs,
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		for tt := 0; tt < slots; tt++ {
			if _, _, _, err := loop.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
				t.Fatalf("P=%d slot %d: %v", parts, tt, err)
			}
		}
		for _, st := range loop.Stats() {
			if st.Conflicts != 0 || st.Retries != 0 || st.Commits != 0 || st.Forced != 0 {
				t.Errorf("P=%d partition %d: counters %+v, want zero (the loop decides once)", parts, st.Partition, st)
			}
		}
		return buf.Bytes()
	}

	hollowIn, err := hollow.NewScaleInputs(2012, 8, slots)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		in       sim.Inputs
		maxParts int
	}{
		{"reference", referenceInputs(t, slots), 3},
		{"hollow-8", hollowIn, 4},
	} {
		single := run(tc.in, 0)
		for parts := 1; parts <= tc.maxParts; parts++ {
			if diff := invariant.DiffJSONL(run(tc.in, parts), single); diff != "" {
				t.Fatalf("%s P=%d trace deviates from single controller:\n%s", tc.name, parts, diff)
			}
		}
		if tc.name != "reference" {
			continue
		}
		path := filepath.Join("testdata", "golden_partitioned.jsonl")
		if *updateGolden {
			if err := os.WriteFile(path, single, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d bytes)", path, len(single))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden partitioned trace (regenerate with -update): %v", err)
		}
		if diff := invariant.DiffJSONL(single, want); diff != "" {
			t.Errorf("partitioned trace deviates from %s:\n%s", path, diff)
		}
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
	pl, err := New(in.Cluster, conns, Config{Partitions: 2, NewScheduler: fac})
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.Partitions(); got != 2 {
		t.Errorf("Partitions() = %d, want 2", got)
	}
	seen := make(map[int]bool)
	for p := 0; p < 2; p++ {
		for _, i := range pl.Owned(p) {
			if seen[i] {
				t.Errorf("data center %d owned by two partitions", i)
			}
			seen[i] = true
		}
	}
	if len(seen) != in.Cluster.N() {
		t.Errorf("ownership covers %d of %d data centers", len(seen), in.Cluster.N())
	}
}
