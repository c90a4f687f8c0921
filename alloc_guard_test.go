package grefar_test

import (
	"bufio"
	"context"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"grefar"
	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/hollow"
	"grefar/internal/queue"
	"grefar/internal/sim"
	"grefar/internal/transport"
)

// loadAllocBudgets parses testdata/bench_slot_baseline.txt: one
// "case ceiling" pair per line, '#' comments and blank lines ignored.
func loadAllocBudgets(t *testing.T) map[string]float64 {
	t.Helper()
	f, err := os.Open("testdata/bench_slot_baseline.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	budgets := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("baseline line %q: want \"case ceiling\"", line)
		}
		ceil, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("baseline line %q: %v", line, err)
		}
		budgets[fields[0]] = ceil
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return budgets
}

// TestDecideAllocationBudget is the hot-path allocation regression guard
// behind `make bench-slot`: a slot decision on the reference cluster must
// stay within the allocs/op ceilings recorded in
// testdata/bench_slot_baseline.txt. The decideScratch workspace brought the
// counts down from the pre-workspace seed (78 at beta=0, 160 at beta=100);
// this test keeps them down.
func TestDecideAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	budgets := loadAllocBudgets(t)
	cases := []struct {
		name string
		beta float64
	}{
		{name: "beta=0", beta: 0},
		{name: "beta=100", beta: 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ceil, ok := budgets[tc.name]
			if !ok {
				t.Fatalf("no budget recorded for %s in testdata/bench_slot_baseline.txt", tc.name)
			}
			inputs, err := grefar.ReferenceInputs(2012, 48)
			if err != nil {
				t.Fatal(err)
			}
			c := inputs.Cluster
			g, err := grefar.New(c, grefar.Config{V: 7.5, Beta: tc.beta})
			if err != nil {
				t.Fatal(err)
			}
			st := buildState(inputs, 12)
			lengths := queue.Lengths{
				Central: make([]float64, c.J()),
				Local:   make([][]float64, c.N()),
			}
			for j := range lengths.Central {
				lengths.Central[j] = float64(3 + j)
			}
			for i := range lengths.Local {
				lengths.Local[i] = make([]float64, c.J())
				for j := range lengths.Local[i] {
					lengths.Local[i][j] = float64((i*7 + j*3) % 20)
				}
			}
			slot := 0
			got := testing.AllocsPerRun(200, func() {
				if _, err := g.Decide(slot, st, lengths); err != nil {
					t.Fatal(err)
				}
				slot++
			})
			if got > ceil {
				t.Errorf("Decide allocates %.1f allocs/op, budget is %.0f (see testdata/bench_slot_baseline.txt)", got, ceil)
			}
		})
	}
}

// TestEngineStepAllocationBudget holds a whole default-configured simulator
// slot at N=200/J=100 (BenchmarkEngineStep's engine) to its recorded ceiling.
// At that size a slot used to cost ~1300 allocations, nearly all of them one
// make per site in queue.Set.Lengths (twice a slot) and queue.Set.Apply;
// then 303, the flow matrices, a closure and a sample slice per site that
// queue.Set.Apply built every call; then 17, the fresh action and post-slot
// snapshot among them. The scheduler now owns its action, the engine
// decides on the queue set's view and the workload hands out its stored
// row, so what remains is ledger appends.
func TestEngineStepAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	const name = "engine-step/N=200/J=100"
	ceil, ok := loadAllocBudgets(t)[name]
	if !ok {
		t.Fatalf("no budget recorded for %s in testdata/bench_slot_baseline.txt", name)
	}
	eng := newLargeEngine(t, sim.Options{})
	// Ledgers that still hold jobs grow their cohort slices, a doubling
	// append at a time, for the first couple of hundred slots; an emptied
	// one rewinds and reuses its storage. Measuring from slot 200 keeps that
	// tail to a few allocations a slot.
	for eng.Slot() < 200 {
		if err := eng.Step(nil); err != nil {
			t.Fatal(err)
		}
	}
	got := testing.AllocsPerRun(100, func() {
		if err := eng.Step(nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s: %.1f allocs/slot, budget %.0f", name, got, ceil)
	if got > ceil {
		t.Errorf("Engine.Step allocates %.1f allocs/slot, budget is %.0f (see testdata/bench_slot_baseline.txt)", got, ceil)
	}
}

// TestWireAllocationBudget is the distributed tick's counterpart of
// TestDecideAllocationBudget: the per-message costs the hollow-fleet numbers
// are made of — one body through the codec, one request through an agent, one
// call and one batch over the mux wire — and the whole tick they add up to, at 500 and at
// 2000 agents, must stay within the ceilings recorded in
// testdata/bench_slot_baseline.txt. Under
// gob a J=3 message cost 205 allocations to encode and decode; a regression of
// that kind shows here, in go test, before it shows in a benchmark.
func TestWireAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	budgets := loadAllocBudgets(t)
	in, err := hollow.NewScaleInputs(2012, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Cluster
	a, err := agent.New(agent.Config{Cluster: c, DataCenter: 0, Price: in.Prices[0], Availability: in.Availability})
	if err != nil {
		t.Fatal(err)
	}
	report := transport.StateReport{Slot: 5, Price: 0.04, Avail: make([]float64, c.K(0)), QueueLens: make([]float64, c.J())}
	alloc := transport.Allocate{Route: make([]int, c.J()), Process: make([]float64, c.J()), Busy: make([]float64, c.K(0))}
	for j := range alloc.Route {
		alloc.Route[j], alloc.Process[j], report.QueueLens[j] = 2, 1, float64(3+j)
	}
	marshal := func(v any) []byte {
		body, err := transport.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pingBody, stateBody := marshal(transport.Ping{Nonce: 1}), marshal(transport.StateRequest{Slot: 5})
	restoreBody := marshal(transport.RestoreRequest{Snapshot: snap})

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewMuxServer(lis, func(dst []byte, _ int, kind string, body []byte) ([]byte, error) {
		return a.AppendReply(dst, kind, body)
	})
	go srv.Serve()
	defer srv.Close()
	cli, err := transport.DialMux(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	conn := cli.Agent(0)
	pongs := make([]transport.Ping, 4)
	batch := make([]transport.BatchCall, len(pongs))
	for k := range batch {
		batch[k] = transport.BatchCall{Kind: transport.KindPing, Req: transport.Ping{Nonce: uint64(k)}, Resp: &pongs[k]}
	}

	// The whole tick: BenchmarkHollowSlot's fleet and controller, at two sizes
	// so a per-agent allocation shows as a slope and not only as a level, and
	// under Strict too, whose slot copies the loop's whole queue set into its
	// abort checkpoint.
	hollowSlot := func(agents int, policy controller.FailurePolicy) func() {
		in, fleet, ct := newHollowLoop(t, agents, 4096, policy)
		t.Cleanup(func() { fleet.Close() })
		tick := 0
		return func() {
			if _, _, _, err := ct.RunSlot(tick, in.Workload.Arrivals(tick)); err != nil {
				t.Fatal(err)
			}
			tick++
		}
	}

	slot := 0
	handle := func(kind string, body []byte) func() {
		return func() {
			if _, err := a.Handle(kind, body); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name string
		op   func()
	}{
		{"codec-state", func() {
			var got transport.StateReport
			if err := transport.Unmarshal(marshal(&report), &got); err != nil {
				t.Fatal(err)
			}
		}},
		{"codec-allocate", func() {
			var got transport.Allocate
			if err := transport.Unmarshal(marshal(&alloc), &got); err != nil {
				t.Fatal(err)
			}
		}},
		{"handle-ping", handle(transport.KindPing, pingBody)},
		{"handle-state", handle(transport.KindState, stateBody)},
		{"handle-allocate", func() {
			// A fresh slot each run: a repeated slot is answered from the
			// replay cache and would measure nothing.
			slot++
			alloc.Slot = slot
			handle(transport.KindAllocate, marshal(&alloc))()
		}},
		{"handle-restore", handle(transport.KindRestore, restoreBody)},
		{"mux-call", func() {
			var got transport.StateReport
			if err := conn.Call(transport.KindState, transport.StateRequest{Slot: 5}, &got); err != nil {
				t.Fatal(err)
			}
		}},
		{"mux-batch", func() {
			if err := cli.CallBatch(context.Background(), batch); err != nil {
				t.Fatal(err)
			}
		}},
		{"hollow-slot/agents=500", hollowSlot(500, controller.Degrade)},
		{"hollow-slot/agents=2000", hollowSlot(2000, controller.Degrade)},
		{"hollow-slot-strict/agents=500", hollowSlot(500, controller.Strict)},
		{"hollow-slot-strict/agents=2000", hollowSlot(2000, controller.Strict)},
	}
	for _, tc := range cases {
		ceil, ok := budgets[tc.name]
		if !ok {
			t.Fatalf("no budget recorded for %s in testdata/bench_slot_baseline.txt", tc.name)
		}
		got := testing.AllocsPerRun(200, tc.op)
		t.Logf("%s: %.1f allocs/op (ceiling %.0f)", tc.name, got, ceil)
		if got > ceil {
			t.Errorf("%s allocates %.1f allocs/op, budget is %.0f (see testdata/bench_slot_baseline.txt)", tc.name, got, ceil)
		}
	}
}
