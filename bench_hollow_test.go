package grefar_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/hollow"
	"grefar/internal/sim"
)

// hollowBenchSizes is the fleet-size sweep recorded in BENCH_distributed.json.
var hollowBenchSizes = []int{100, 500, 1000, 2000}

// hollowWarmSlots run before BenchmarkHollowSlot starts its timer. A young
// fleet is still sizing things it then keeps — every ledger (agent, shadow,
// central) doubles its cohort array until it holds about twice its live
// cohorts, where compaction keeps it, and the wire's decode scratch is cut on
// first use — and a one-second run at 2000 agents is only ~300 slots long, so
// without the warm-up the large cells reported mostly that growth while the
// small ones, thousands of slots long, did not.
const hollowWarmSlots = 150

// newHollowLoop builds what the hollow-fleet benchmarks, the leak test and the
// whole-tick allocation guards all drive: n hollow agents behind the mux wire
// and the GreFar control loop over fleet.Conns() under the given failure
// policy (Degrade everywhere but the Strict guard rows). The caller closes
// the fleet.
func newHollowLoop(tb testing.TB, n, horizon int, policy controller.FailurePolicy) (sim.Inputs, *hollow.Fleet, *controller.Controller) {
	tb.Helper()
	in, err := hollow.NewScaleInputs(2012, n, horizon)
	if err != nil {
		tb.Fatal(err)
	}
	g, err := core.New(in.Cluster, core.Config{V: 7.5, Beta: 100})
	if err != nil {
		tb.Fatal(err)
	}
	fleet, err := hollow.NewFleet(in, hollow.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	ct, err := controller.New(in.Cluster, g, fleet.Conns(), controller.WithFailurePolicy(policy))
	if err != nil {
		fleet.Close()
		tb.Fatal(err)
	}
	return in, fleet, ct
}

// BenchmarkHollowSlot measures one real control-loop slot tick against a
// hollow fleet of N in-process agents behind the multiplexed TCP wire: concurrent gather from N agents, the GreFar decision over N sites,
// and the allocate scatter with ack settlement. This is the number ROADMAP's
// control-plane scale work is judged by — BENCH_distributed.json tracks it
// per fleet size, and make bench-compare fails on >15% regressions.
func BenchmarkHollowSlot(b *testing.B) {
	for _, n := range hollowBenchSizes {
		b.Run(fmt.Sprintf("agents=%d", n), func(b *testing.B) {
			in, fleet, ct := newHollowLoop(b, n, 4096, controller.Degrade)
			tick := func(t int) {
				if _, _, _, err := ct.RunSlot(t%4096, in.Workload.Arrivals(t%4096)); err != nil {
					b.Fatal(err)
				}
			}
			for t := 0; t < hollowWarmSlots; t++ {
				tick(t)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick(hollowWarmSlots + i)
			}
			b.StopTimer()
			fleet.Close()
		})
	}
}

// BenchmarkFleetBuild measures hollow.NewFleet — every agent, the listener
// and the fleet's client connections — on inputs built once; Close runs off
// the clock. The agents share one cluster, validated once, so 2000 agents
// cost about four times 500, not sixteen.
func BenchmarkFleetBuild(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("agents=%d", n), func(b *testing.B) {
			in, err := hollow.NewScaleInputs(2012, n, 4096)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				fleet, err := hollow.NewFleet(in, hollow.Options{})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				fleet.Close()
				b.StartTimer()
			}
		})
	}
}

// TestHollowBenchHarnessLeaksNoGoroutines is the hollow counterpart of the
// distributed harness leak test: one fleet start/run/close cycle must return
// the process to its prior goroutine count.
func TestHollowBenchHarnessLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	in, fleet, ct := newHollowLoop(t, 64, 32, controller.Degrade)
	for tt := 0; tt < 3; tt++ {
		if _, _, _, err := ct.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
			fleet.Close()
			t.Fatal(err)
		}
	}
	fleet.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines: %d before harness, %d after close", before, got)
	}
}
