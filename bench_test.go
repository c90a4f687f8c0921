package grefar_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (section VI) at full scale (2000 hourly slots, as in the
// paper's plots) and reports the headline numbers as benchmark metrics.
// Run with:
//
//	go test -bench=. -benchmem
//
// Benchmarks are not expected to match the paper's absolute values (the
// substrate is a synthetic reproduction of a proprietary trace), but the
// shapes must hold: energy decreasing and delay increasing in V (Fig. 2),
// fairness improving sharply at marginal energy cost for beta=100 (Fig. 3),
// GreFar beating Always on energy and fairness (Fig. 4), GreFar paying
// below-average electricity prices (Fig. 5), most work landing on the
// cheapest site (section VI-B1), and the Theorem 1 bounds (queue O(V), cost
// gap O(1/V)).

import (
	"fmt"
	"runtime"
	"testing"

	"grefar"
	"grefar/internal/experiments"
	"grefar/internal/sim"
)

// paperScale is the horizon of the paper's figures.
var paperScale = experiments.Config{Seed: 2012, Slots: 2000}

func BenchmarkTableI(b *testing.B) {
	for n := 0; n < b.N; n++ {
		rows, err := experiments.TableI(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			for _, r := range rows {
				b.Logf("%s speed=%.2f power=%.2f avgPrice=%.3f costPerWork=%.3f",
					r.DC, r.Speed, r.Power, r.AvgPrice, r.CostPerWork)
			}
			b.ReportMetric(rows[1].CostPerWork, "dc2_cost_per_work")
		}
	}
}

func BenchmarkFig1Trace(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.Fig1(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			var peak float64
			for _, series := range res.OrgWork {
				for _, v := range series {
					if v > peak {
						peak = v
					}
				}
			}
			b.ReportMetric(peak, "peak_org_work")
		}
	}
}

func BenchmarkFig2VSweep(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.Fig2(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			for x, v := range res.V {
				b.Logf("V=%-5g energy=%.3f delayDC1=%.3f delayDC2=%.3f",
					v, res.FinalEnergy[x], res.FinalDelayDC1[x], res.FinalDelayDC2[x])
			}
			b.ReportMetric(res.FinalEnergy[0]-res.FinalEnergy[len(res.FinalEnergy)-1], "energy_saving_V20_vs_V0.1")
			b.ReportMetric(res.FinalDelayDC1[len(res.FinalDelayDC1)-1], "delayDC1_at_V20")
		}
	}
}

func BenchmarkFig3BetaSweep(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.Fig3(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			for x, beta := range res.Beta {
				b.Logf("beta=%-4g energy=%.3f fairness=%.4f delayDC1=%.3f",
					beta, res.FinalEnergy[x], res.FinalFairness[x], res.FinalDelayDC1[x])
			}
			b.ReportMetric(res.FinalFairness[1]-res.FinalFairness[0], "fairness_gain_beta100")
			b.ReportMetric(res.FinalEnergy[1]/res.FinalEnergy[0], "energy_ratio_beta100")
		}
	}
}

func BenchmarkFig4Comparison(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.Fig4(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			for x, name := range res.Names {
				b.Logf("%-22s energy=%.3f fairness=%.4f delayDC1=%.3f work=%v",
					name, res.FinalEnergy[x], res.FinalFairness[x], res.FinalDelayDC1[x], res.WorkPerDC[x])
			}
			b.ReportMetric(res.FinalEnergy[1]/res.FinalEnergy[0], "always_over_grefar_energy")
		}
	}
}

func BenchmarkFig5Snapshot(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.Fig5(paperScale, 30)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Logf("meanPriceDC1=%.4f grefarPaid=%.4f alwaysPaid=%.4f (corr %.3f vs %.3f)",
				res.MeanPriceDC1, res.GreFarPricePaid, res.AlwaysPricePaid, res.GreFarCorr, res.AlwaysCorr)
			b.ReportMetric(res.AlwaysPricePaid-res.GreFarPricePaid, "price_saving_per_work")
		}
	}
}

func BenchmarkWorkShare(b *testing.B) {
	for n := 0; n < b.N; n++ {
		ws, err := experiments.WorkShare(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Logf("avg work per slot per site: %.3f %.3f %.3f (paper: 33.967 48.502 14.770)", ws[0], ws[1], ws[2])
			b.ReportMetric(ws[1], "dc2_work_per_slot")
		}
	}
}

func BenchmarkTheorem1Bounds(b *testing.B) {
	cfg := experiments.Config{Seed: 2012, Slots: 24 * 20}
	for n := 0; n < b.N; n++ {
		res, err := experiments.Theorem1(cfg, []float64{0.5, 2.5, 7.5, 20}, 12)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			gaps := res.Gap()
			for x, v := range res.V {
				b.Logf("V=%-4g maxQueue=%.1f avgCost=%.3f gapToLookahead=%.3f", v, res.MaxQueue[x], res.AvgCost[x], gaps[x])
			}
			b.Logf("lookahead benchmark (T=%d): %.3f", res.T, res.LookaheadCost)
			b.ReportMetric(res.MaxQueue[len(res.MaxQueue)-1]/res.MaxQueue[0], "queue_growth_V20_over_V0.5")
			b.ReportMetric(gaps[0]-gaps[len(gaps)-1], "gap_shrink")
		}
	}
}

func BenchmarkMPCComparison(b *testing.B) {
	cfg := experiments.Config{Seed: 2012, Slots: 24 * 30}
	for n := 0; n < b.N; n++ {
		res, err := experiments.MPCComparison(cfg, 24)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Logf("grefar %.3f (delay %.2f) vs oracle-mpc(W=%d) %.3f (delay %.2f) vs always %.3f",
				res.GreFarEnergy, res.GreFarDelay, res.Window, res.MPCEnergy, res.MPCDelay, res.AlwaysEnergy)
			b.ReportMetric(res.ForesightAdvantageFrac, "foresight_advantage_frac")
		}
	}
}

func BenchmarkDelayTails(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.DelayTails(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			for x := range res.V {
				b.Logf("V=%-5g mean=%.2f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
					res.V[x], res.MeanDC1[x], res.P50[x], res.P95[x], res.P99[x], res.MaxDC1[x])
			}
			b.ReportMetric(res.P99[len(res.P99)-1], "p99_delay_at_V20")
		}
	}
}

func BenchmarkRobustness(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.Robustness(paperScale, []int64{1, 2, 3, 4, 5})
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Logf("energy: grefar %s vs always %s; gap %s; fairness gap %s; delay gap %s; violations %d/5",
				res.GreFarEnergy, res.AlwaysEnergy, res.EnergyGapFrac, res.FairnessGap, res.DelayGap, res.Violations)
			b.ReportMetric(res.EnergyGapFrac.Mean, "mean_energy_gap_frac")
			b.ReportMetric(float64(res.Violations), "ordering_violations")
		}
	}
}

func BenchmarkAblationGreedyVsLP(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.AblationGreedyVsLP(experiments.Config{Seed: 2012, Slots: 200}, 100)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Logf("objective agreement %.2e, greedy %.3fms vs LP %.3fms (%.1fx)",
				res.MaxObjectiveDiff, float64(res.GreedyTime.Microseconds())/1000,
				float64(res.LPTime.Microseconds())/1000, res.Speedup)
			b.ReportMetric(res.Speedup, "greedy_speedup_x")
		}
	}
}

func BenchmarkAblationRoutingTieBreak(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.AblationRoutingTieBreak(paperScale)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Logf("split-ties energy %.3f (work %.1f/%.1f/%.1f) vs first-site %.3f (work %.1f/%.1f/%.1f)",
				res.SplitEnergy, res.SplitWork[0], res.SplitWork[1], res.SplitWork[2],
				res.FirstEnergy, res.FirstWork[0], res.FirstWork[1], res.FirstWork[2])
			b.ReportMetric(res.SplitEnergy-res.FirstEnergy, "tie_split_cost_delta")
		}
	}
}

func BenchmarkAblationFWIters(b *testing.B) {
	for n := 0; n < b.N; n++ {
		res, err := experiments.AblationFWIters(experiments.Config{Seed: 2012, Slots: 500}, []int{5, 20, 50, 150}, 12)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			for x, it := range res.Iters {
				b.Logf("FW iters=%-4d relGap=%.2e", it, res.RelGap[x])
			}
		}
	}
}

// BenchmarkSlotDecision measures the per-slot cost of the GreFar optimizer
// itself — the quantity that determines controller scalability. No observer
// is attached, so every reported alloc is solver and bookkeeping churn inside
// Decide; `make bench-slot` compares allocs/op against the recorded baseline
// in testdata/bench_slot_baseline.txt.
func BenchmarkSlotDecision(b *testing.B) {
	for _, beta := range []float64{0, 100} {
		b.Run(fmt.Sprintf("beta=%g", beta), func(b *testing.B) {
			b.ReportAllocs()
			benchmarkSlotDecision(b, beta)
		})
	}
	// The large-instance arms: a 200-site, 100-job-type synthetic cluster at
	// ~10% active-pair density, where the sparse index and block decomposition
	// earn their keep. All arms share the same instance and the same per-slot
	// input drift; compare against "dense" for the sparse/decomposed win, and
	// "auto" (the default, which resolves to the compact representation here)
	// against "sparse" to see that the default pays nothing extra.
	for _, arm := range []struct {
		name string
		kind grefar.SolverKind
	}{
		{"auto", grefar.SolverAuto},
		{"dense", grefar.SolverMonolithic},
		{"sparse", grefar.SolverSparse},
		{"decomposed", grefar.SolverDecomposed},
		{"decomposed-pool", grefar.SolverDecomposed},
	} {
		workers := 1
		if arm.name == "decomposed-pool" {
			workers = runtime.GOMAXPROCS(0)
		}
		b.Run("N=200/J=100/"+arm.name, func(b *testing.B) {
			b.ReportAllocs()
			benchmarkLargeSlotDecision(b, arm.kind, workers)
		})
	}
}

// BenchmarkEngineStep measures one whole default-configured simulator slot —
// reveal, decide, apply, arrive, snapshot, metrics — on the solver-scale
// cluster at N=200/J=100 with a tenth of the pairs eligible, warm-started:
// the engine-side counterpart of BenchmarkSlotDecision/N=200/J=100/auto, and
// what the repo benchmark's solve-large workload times end to end.
func BenchmarkEngineStep(b *testing.B) {
	b.Run("N=200/J=100", func(b *testing.B) {
		b.ReportAllocs()
		eng := newLargeEngine(b, sim.Options{})
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			if err := eng.Step(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// newLargeEngine builds the N=200/J=100 engine — default solver, warm starts
// on — under opt and runs it past its cold start. BenchmarkEngineStep and the
// engine-step allocation budget pass no options, so no observer.
func newLargeEngine(tb testing.TB, opt sim.Options) *sim.Engine {
	tb.Helper()
	eng := newEngineOn(tb, largeEngineInputs(tb), opt)
	for eng.Slot() < 50 {
		if err := eng.Step(nil); err != nil {
			tb.Fatal(err)
		}
	}
	return eng
}

// newEngineOn builds an engine on in under the default solver, V = 7.5 and
// β = 100.
func newEngineOn(tb testing.TB, in sim.Inputs, opt sim.Options) *sim.Engine {
	tb.Helper()
	g, err := grefar.New(in.Cluster, grefar.WithV(7.5), grefar.WithBeta(100))
	if err != nil {
		tb.Fatal(err)
	}
	eng, err := sim.NewEngine(in, g, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return eng
}

// largeEngineInputs builds the inputs newLargeEngine runs on; every call
// returns an equal set.
func largeEngineInputs(tb testing.TB) sim.Inputs {
	tb.Helper()
	in, err := experiments.NewSolverScaleInputs(2012, 200, 100, 2048, 0.1)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// benchmarkLargeSlotDecision times Decide on the solver-scale large instance:
// 200 sites x 100 job types at 10% density, warm-started, with small input
// drift each iteration so the incremental coefficient refresh is on its
// steady-state path rather than replaying one frozen slot.
func benchmarkLargeSlotDecision(b *testing.B, kind grefar.SolverKind, workers int) {
	in, err := experiments.NewSolverScaleInstance(2012, 200, 100, 0.1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := grefar.New(in.Cluster,
		grefar.Config{V: 7.5, Beta: 100},
		grefar.WithSolver(kind),
		grefar.WithSolverWorkers(workers),
	)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := g.Decide(0, in.State, in.Lengths); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		in.Mutate()
		b.StartTimer()
		if _, err := g.Decide(n+1, in.State, in.Lengths); err != nil {
			b.Fatal(err)
		}
	}
}
