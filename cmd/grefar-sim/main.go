// Command grefar-sim runs the paper's evaluation experiments from the
// command line and renders their tables and figures as text (with optional
// CSV export for external plotting).
//
// Usage:
//
//	grefar-sim -experiment table1|fig1|fig2|fig3|fig4|fig5|workshare|theorem1|\
//	           ablation|robustness|delays|mpc|churn|events|all \
//	           [-slots 2000] [-seed 2012] [-workers 0] [-day 30] [-csv out.csv] \
//	           [-events out.jsonl] [-chaos-seed 2012] [-kill 2] [-down 6]
//
// Experiments that sweep several configurations (fig2, fig3, fig4, fig5,
// robustness, delays, theorem1, mpc) fan their independent runs across
// -workers goroutines (0 = one per CPU); the output is byte-identical at any
// worker count because every run is seeded independently and results are
// assembled in sweep order.
//
// The events experiment streams one JSON object per simulated slot (the
// telemetry.SlotEvent schema) to -events, or to stdout when the flag is
// empty; it is not part of -experiment all. SIGINT stops a long run at the
// next slot boundary.
//
// The churn experiment (also outside -experiment all) runs the distributed
// control loop under the Degrade failure policy with -kill agents partitioned
// for -down slots each, every fault drawn from -chaos-seed, and reports
// recovery times and queue-backlog inflation against a fault-free baseline.
//
// The scale experiment (also outside -experiment all) sweeps hollow fleets of
// -scale-agents in-process agents through the real control loop for
// -scale-slots slots each, measuring slot-tick latency percentiles,
// throughput, allocation rate, and heap ceiling — fault-free and, with
// -scale-chaos, under partitions of -kill-frac of the fleet plus call drops.
//
// The solverscale experiment (also outside -experiment all) sweeps the slot
// solvers themselves — the default (auto), monolithic, sparse, decomposed,
// and pooled decomposed — over large synthetic instances of -solver-shapes
// (N x J) at -solver-densities active-pair fractions, measuring per-decision
// latency and allocation rate for -scale-slots drifting slots per cell.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"grefar"
	"grefar/internal/experiments"
	"grefar/internal/report"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "grefar-sim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("grefar-sim", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "which experiment to run: table1, fig1, fig2, fig3, fig4, fig5, workshare, theorem1, ablation, robustness, delays, mpc, churn, scale, solverscale, events, or all")
	slots := fs.Int("slots", 2000, "simulation horizon in hourly slots")
	seed := fs.Int64("seed", 2012, "seed for every stochastic input")
	day := fs.Int("day", 30, "snapshot day for fig5")
	csvPath := fs.String("csv", "", "optional path to write the experiment's series as CSV")
	eventsPath := fs.String("events", "", "optional path for the events experiment's JSONL stream (default stdout)")
	v := fs.Float64("V", 7.5, "cost-delay parameter for the events experiment")
	beta := fs.Float64("beta", 100, "energy-fairness parameter for the events experiment")
	check := fs.Bool("check", false, "verify per-slot invariants (queue dynamics, feasibility, conservation) during every run; fail on the first violation")
	workers := fs.Int("workers", 0, "how many simulation runs to execute concurrently within an experiment (0 = one per CPU); results are identical at any setting")
	chaosSeed := fs.Int64("chaos-seed", 2012, "seed for the churn experiment's fault streams")
	kill := fs.Int("kill", 2, "how many agents the churn experiment partitions")
	down := fs.Int("down", 6, "how many slots each churn outage lasts")
	scaleAgents := fs.String("scale-agents", "100,500,1000,2000", "comma-separated fleet sizes for the scale experiment")
	scaleSlots := fs.Int("scale-slots", 40, "per-fleet-size horizon for the scale experiment")
	scaleChaos := fs.Bool("scale-chaos", true, "also run each scale point with injected churn and drops")
	scaleParts := fs.Int("scale-partitions", 4, "partitioned-control-plane arm of the scale experiment (<=1 disables)")
	killFrac := fs.Float64("kill-frac", 0.05, "fraction of agents the scale chaos variant partitions")
	solverShapes := fs.String("solver-shapes", "50x25,100x50,200x100", "comma-separated NxJ grid points for the solverscale experiment")
	solverDensities := fs.String("solver-densities", "0.1,0.5,1", "comma-separated active-pair fractions for the solverscale experiment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{Seed: *seed, Slots: *slots, Check: *check, Workers: *workers, Context: ctx}
	if *experiment == "all" {
		// In the all-experiments sweep the snapshot day must fit whatever
		// horizon was chosen; explicit single-experiment runs still reject
		// out-of-range days.
		if lastDay := *slots/24 - 1; *day > lastDay {
			*day = lastDay
		}
	}

	runners := map[string]func() error{
		"events":    func() error { return runEvents(ctx, out, cfg, *v, *beta, *eventsPath) },
		"table1":    func() error { return runTableI(out, cfg) },
		"fig1":      func() error { return runFig1(out, cfg, *csvPath) },
		"fig2":      func() error { return runFig2(out, cfg, *csvPath) },
		"fig3":      func() error { return runFig3(out, cfg, *csvPath) },
		"fig4":      func() error { return runFig4(out, cfg, *csvPath) },
		"fig5":      func() error { return runFig5(out, cfg, *day, *csvPath) },
		"workshare": func() error { return runWorkShare(out, cfg) },
		"theorem1":  func() error { return runTheorem1(out, cfg) },
		"ablation":  func() error { return runAblation(out, cfg) },
		"mpc": func() error {
			mcfg := cfg
			if mcfg.Slots > 24*30 {
				mcfg.Slots = 24 * 30 // one window LP per slot dominates runtime
			}
			res, err := experiments.MPCComparison(mcfg, 24)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "grefar(V=7.5)      energy %.3f  delayDC1 %.2f\n", res.GreFarEnergy, res.GreFarDelay)
			fmt.Fprintf(out, "oracle-mpc(W=%d)   energy %.3f  delayDC1 %.2f\n", res.Window, res.MPCEnergy, res.MPCDelay)
			fmt.Fprintf(out, "always             energy %.3f\n", res.AlwaysEnergy)
			fmt.Fprintf(out, "perfect-foresight advantage over GreFar: %.1f%%\n", 100*res.ForesightAdvantageFrac)
			return nil
		},
		"delays": func() error {
			res, err := experiments.DelayTails(cfg)
			if err != nil {
				return err
			}
			table := make([][]string, len(res.V))
			for x := range res.V {
				table[x] = []string{
					strconv.FormatFloat(res.V[x], 'g', -1, 64),
					report.FormatFloat(res.MeanDC1[x], 2),
					report.FormatFloat(res.P50[x], 1),
					report.FormatFloat(res.P95[x], 1),
					report.FormatFloat(res.P99[x], 1),
					report.FormatFloat(res.MaxDC1[x], 1),
				}
			}
			if err := report.Table(out, []string{"V", "Mean", "p50", "p95", "p99", "Max"}, table); err != nil {
				return err
			}
			return report.Histogram(out, "\nDC1 per-job delay distribution at V=7.5 (jobs per bucket):",
				res.RefBounds, res.RefCounts, 40)
		},
		"scale": func() error {
			agents, err := parseIntList(*scaleAgents)
			if err != nil {
				return fmt.Errorf("-scale-agents: %w", err)
			}
			return runScale(out, experiments.ScaleConfig{
				Seed:       *seed,
				ChaosSeed:  *chaosSeed,
				Agents:     agents,
				Slots:      *scaleSlots,
				Chaos:      *scaleChaos,
				Partitions: *scaleParts,
				KillFrac:   *killFrac,
				Check:      *check,
				Context:    ctx,
			})
		},
		"solverscale": func() error {
			shapes, err := parseShapeList(*solverShapes)
			if err != nil {
				return fmt.Errorf("-solver-shapes: %w", err)
			}
			densities, err := parseFloatList(*solverDensities)
			if err != nil {
				return fmt.Errorf("-solver-densities: %w", err)
			}
			return runSolverScale(out, experiments.SolverScaleConfig{
				Seed:      *seed,
				Shapes:    shapes,
				Densities: densities,
				Slots:     *scaleSlots,
				Beta:      *beta,
				V:         *v,
				Workers:   *workers,
				Context:   ctx,
			})
		},
		"churn": func() error {
			return runChurn(out, experiments.ChurnConfig{
				Seed:      *seed,
				ChaosSeed: *chaosSeed,
				Slots:     *slots,
				Kill:      *kill,
				Down:      *down,
			})
		},
		"robustness": func() error {
			res, err := experiments.Robustness(cfg, nil)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "GreFar vs Always across 5 seeds (V=7.5, beta=100):\n")
			fmt.Fprintf(out, "  grefar energy   %s\n  always energy   %s\n", res.GreFarEnergy, res.AlwaysEnergy)
			fmt.Fprintf(out, "  energy gap      %s (fraction of Always' bill)\n", res.EnergyGapFrac)
			fmt.Fprintf(out, "  fairness gap    %s (positive = GreFar fairer)\n", res.FairnessGap)
			fmt.Fprintf(out, "  delay gap       %s slots\n", res.DelayGap)
			fmt.Fprintf(out, "  ordering violations: %d\n", res.Violations)
			return nil
		},
	}
	if *experiment == "all" {
		for _, name := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "workshare", "theorem1", "ablation", "robustness", "delays", "mpc"} {
			fmt.Fprintf(out, "\n=== %s ===\n", name)
			if err := runners[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	r, ok := runners[*experiment]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	return r()
}

// runChurn runs the fault-tolerance churn experiment: kill -kill agents for
// -down slots each (staggered), scheduled around under the Degrade policy,
// and report recovery times and queue-backlog inflation against a fault-free
// baseline of the same seeds.
func runChurn(out io.Writer, cfg experiments.ChurnConfig) error {
	res, err := experiments.Churn(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "churn over %d slots: %d degraded slots\n", res.Slots, res.DegradedSlots)
	for _, r := range res.Recoveries {
		fmt.Fprintf(out, "  agent %d down [%d,%d): rejoined %d slot(s) after the outage\n",
			r.Agent, r.From, r.To, r.RecoverySlots)
	}
	fmt.Fprintf(out, "  avg energy: baseline %.3f, chaos %.3f\n", res.BaselineEnergy, res.ChaosEnergy)
	fmt.Fprintf(out, "  backlog inflation: peak %.1f jobs, at horizon %.1f jobs (final %.1f vs %.1f)\n",
		res.MaxBacklogInflation, res.FinalBacklogInflation, res.ChaosFinalBacklog, res.BaselineFinalBacklog)
	return nil
}

// parseIntList parses a comma-separated list of positive ints.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseShapeList parses a comma-separated list of NxJ shapes.
func parseShapeList(s string) ([][2]int, error) {
	var out [][2]int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, j, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("bad shape %q (want NxJ)", part)
		}
		nv, err1 := strconv.Atoi(strings.TrimSpace(n))
		jv, err2 := strconv.Atoi(strings.TrimSpace(j))
		if err1 != nil || err2 != nil || nv <= 0 || jv <= 0 {
			return nil, fmt.Errorf("bad shape %q", part)
		}
		out = append(out, [2]int{nv, jv})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseFloatList parses a comma-separated list of floats in [0, 1].
func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil || f < 0 || f > 1 {
			return nil, fmt.Errorf("bad fraction %q", part)
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// runSolverScale runs the slot-solver scale sweep: per instance shape and
// backlog density, each solver arm decides the same drifting slot sequence.
func runSolverScale(out io.Writer, cfg experiments.SolverScaleConfig) error {
	res, err := experiments.SolverScale(cfg)
	if err != nil {
		return err
	}
	table := make([][]string, len(res.Points))
	for x, pt := range res.Points {
		table[x] = []string{
			strconv.Itoa(pt.N),
			strconv.Itoa(pt.J),
			report.FormatFloat(pt.Density, 2),
			strconv.Itoa(pt.ActivePairs),
			pt.Solver,
			strconv.Itoa(pt.Workers),
			report.FormatFloat(pt.DecideMicros, 1),
			report.FormatFloat(pt.AllocsPerDecide, 0),
			report.FormatFloat(pt.Objective, 1),
		}
	}
	return report.Table(out, []string{"N", "J", "Density", "Active", "Solver", "Workers", "us/decide", "Allocs/decide", "Objective"}, table)
}

// runScale runs the hollow-fleet scale sweep: per agent count, a real
// controller drives N in-process agents over the multiplexed TCP wire, fault-free and (with -scale-chaos) under injected churn.
func runScale(out io.Writer, cfg experiments.ScaleConfig) error {
	res, err := experiments.Scale(cfg)
	if err != nil {
		return err
	}
	table := make([][]string, len(res.Points))
	for x, pt := range res.Points {
		mode := "clean"
		if pt.Chaos {
			mode = "chaos"
		}
		parts := pt.Partitions
		if parts < 1 {
			parts = 1
		}
		table[x] = []string{
			strconv.Itoa(pt.Agents),
			mode,
			strconv.Itoa(parts),
			pt.P50.Round(10 * time.Microsecond).String(),
			pt.P99.Round(10 * time.Microsecond).String(),
			report.FormatFloat(pt.SlotsPerSec, 1),
			report.FormatFloat(pt.AllocsPerSlot, 0),
			report.FormatFloat(pt.HeapMB, 1),
			strconv.Itoa(pt.DegradedSlots),
			report.FormatFloat(pt.EnergyPerSlot, 1),
			report.FormatFloat(pt.FinalBacklog, 0),
		}
	}
	return report.Table(out, []string{"Agents", "Mode", "Parts", "p50 tick", "p99 tick", "Slots/s", "Allocs/slot", "Heap MiB", "Degraded", "Energy/slot", "Backlog"}, table)
}

func runTableI(out io.Writer, cfg experiments.Config) error {
	rows, err := experiments.TableI(cfg)
	if err != nil {
		return err
	}
	table := make([][]string, len(rows))
	for i, r := range rows {
		table[i] = []string{
			r.DC,
			report.FormatFloat(r.Speed, 2),
			report.FormatFloat(r.Power, 2),
			report.FormatFloat(r.AvgPrice, 3),
			report.FormatFloat(r.CostPerWork, 3),
		}
	}
	return report.Table(out, []string{"DC", "Speed", "Power", "Avg Price", "Avg Energy Cost/Unit Work"}, table)
}

func runFig1(out io.Writer, cfg experiments.Config, csvPath string) error {
	res, err := experiments.Fig1(cfg)
	if err != nil {
		return err
	}
	prices := make([]report.Series, len(res.Prices))
	for i, p := range res.Prices {
		prices[i] = report.Series{Name: "DC" + strconv.Itoa(i+1), Values: p}
	}
	if err := report.Chart(out, "Fig 1 (top): 3-day electricity prices", prices, 72, 10); err != nil {
		return err
	}
	orgs := make([]report.Series, len(res.OrgWork))
	for m, w := range res.OrgWork {
		orgs[m] = report.Series{Name: "org" + strconv.Itoa(m+1), Values: w}
	}
	if err := report.Chart(out, "Fig 1 (bottom): 3-day arriving work per organization", orgs, 72, 10); err != nil {
		return err
	}
	if csvPath != "" {
		cols := make([][]float64, 0, len(res.Prices)+len(res.OrgWork))
		headers := make([]string, 0, cap(cols))
		for i, p := range res.Prices {
			headers = append(headers, "price_dc"+strconv.Itoa(i+1))
			cols = append(cols, p)
		}
		for m, w := range res.OrgWork {
			headers = append(headers, "work_org"+strconv.Itoa(m+1))
			cols = append(cols, w)
		}
		return writeCSVFile(csvPath, headers, cols)
	}
	return nil
}

func runFig2(out io.Writer, cfg experiments.Config, csvPath string) error {
	res, err := experiments.Fig2(cfg)
	if err != nil {
		return err
	}
	mkSeries := func(series [][]float64) []report.Series {
		s := make([]report.Series, len(res.V))
		for x := range res.V {
			s[x] = report.Series{Name: "V=" + strconv.FormatFloat(res.V[x], 'g', -1, 64), Values: series[x]}
		}
		return s
	}
	if err := report.Chart(out, "Fig 2a: running-average energy cost", mkSeries(res.Energy), 72, 10); err != nil {
		return err
	}
	if err := report.Chart(out, "Fig 2b: running-average delay in DC1", mkSeries(res.DelayDC1), 72, 10); err != nil {
		return err
	}
	if err := report.Chart(out, "Fig 2c: running-average delay in DC2", mkSeries(res.DelayDC2), 72, 10); err != nil {
		return err
	}
	table := make([][]string, len(res.V))
	for x := range res.V {
		table[x] = []string{
			strconv.FormatFloat(res.V[x], 'g', -1, 64),
			report.FormatFloat(res.FinalEnergy[x], 3),
			report.FormatFloat(res.FinalDelayDC1[x], 3),
			report.FormatFloat(res.FinalDelayDC2[x], 3),
		}
	}
	if err := report.Table(out, []string{"V", "Avg Energy", "Delay DC1", "Delay DC2"}, table); err != nil {
		return err
	}
	if csvPath != "" {
		var headers []string
		var cols [][]float64
		for x := range res.V {
			v := strconv.FormatFloat(res.V[x], 'g', -1, 64)
			headers = append(headers, "energy_V"+v, "delay_dc1_V"+v, "delay_dc2_V"+v)
			cols = append(cols, res.Energy[x], res.DelayDC1[x], res.DelayDC2[x])
		}
		return writeCSVFile(csvPath, headers, cols)
	}
	return nil
}

func runFig3(out io.Writer, cfg experiments.Config, csvPath string) error {
	res, err := experiments.Fig3(cfg)
	if err != nil {
		return err
	}
	mkSeries := func(series [][]float64) []report.Series {
		s := make([]report.Series, len(res.Beta))
		for x := range res.Beta {
			s[x] = report.Series{Name: "beta=" + strconv.FormatFloat(res.Beta[x], 'g', -1, 64), Values: series[x]}
		}
		return s
	}
	if err := report.Chart(out, "Fig 3a: running-average energy cost", mkSeries(res.Energy), 72, 10); err != nil {
		return err
	}
	if err := report.Chart(out, "Fig 3b: running-average fairness", mkSeries(res.Fairness), 72, 10); err != nil {
		return err
	}
	if err := report.Chart(out, "Fig 3c: running-average delay in DC1", mkSeries(res.DelayDC1), 72, 10); err != nil {
		return err
	}
	table := make([][]string, len(res.Beta))
	for x := range res.Beta {
		table[x] = []string{
			strconv.FormatFloat(res.Beta[x], 'g', -1, 64),
			report.FormatFloat(res.FinalEnergy[x], 3),
			report.FormatFloat(res.FinalFairness[x], 4),
			report.FormatFloat(res.FinalDelayDC1[x], 3),
		}
	}
	if err := report.Table(out, []string{"beta", "Avg Energy", "Avg Fairness", "Delay DC1"}, table); err != nil {
		return err
	}
	if csvPath != "" {
		var headers []string
		var cols [][]float64
		for x := range res.Beta {
			bt := strconv.FormatFloat(res.Beta[x], 'g', -1, 64)
			headers = append(headers, "energy_b"+bt, "fairness_b"+bt, "delay_dc1_b"+bt)
			cols = append(cols, res.Energy[x], res.Fairness[x], res.DelayDC1[x])
		}
		return writeCSVFile(csvPath, headers, cols)
	}
	return nil
}

func runFig4(out io.Writer, cfg experiments.Config, csvPath string) error {
	res, err := experiments.Fig4(cfg)
	if err != nil {
		return err
	}
	mkSeries := func(series [][]float64) []report.Series {
		s := make([]report.Series, len(res.Names))
		for x := range res.Names {
			s[x] = report.Series{Name: res.Names[x], Values: series[x]}
		}
		return s
	}
	if err := report.Chart(out, "Fig 4a: running-average energy cost", mkSeries(res.Energy), 72, 10); err != nil {
		return err
	}
	if err := report.Chart(out, "Fig 4b: running-average fairness", mkSeries(res.Fairness), 72, 10); err != nil {
		return err
	}
	if err := report.Chart(out, "Fig 4c: running-average delay in DC1", mkSeries(res.DelayDC1), 72, 10); err != nil {
		return err
	}
	table := make([][]string, len(res.Names))
	for x := range res.Names {
		table[x] = []string{
			res.Names[x],
			report.FormatFloat(res.FinalEnergy[x], 3),
			report.FormatFloat(res.FinalFairness[x], 4),
			report.FormatFloat(res.FinalDelayDC1[x], 3),
			fmt.Sprintf("%.2f / %.2f / %.2f", res.WorkPerDC[x][0], res.WorkPerDC[x][1], res.WorkPerDC[x][2]),
		}
	}
	if err := report.Table(out, []string{"Policy", "Avg Energy", "Avg Fairness", "Delay DC1", "Work/slot per DC"}, table); err != nil {
		return err
	}
	if csvPath != "" {
		var headers []string
		var cols [][]float64
		for x, name := range res.Names {
			headers = append(headers, "energy_"+name, "fairness_"+name, "delay_dc1_"+name)
			cols = append(cols, res.Energy[x], res.Fairness[x], res.DelayDC1[x])
		}
		return writeCSVFile(csvPath, headers, cols)
	}
	return nil
}

func runFig5(out io.Writer, cfg experiments.Config, day int, csvPath string) error {
	res, err := experiments.Fig5(cfg, day)
	if err != nil {
		return err
	}
	if err := report.Chart(out, "Fig 5 (top): DC1 price over the snapshot day",
		[]report.Series{{Name: "price", Values: res.PriceDC1}}, 48, 8); err != nil {
		return err
	}
	if err := report.Chart(out, "Fig 5 (bottom): scheduled work at DC1", []report.Series{
		{Name: "GreFar", Values: res.GreFarWork},
		{Name: "Always", Values: res.AlwaysWork},
	}, 48, 8); err != nil {
		return err
	}
	fmt.Fprintf(out, "mean DC1 price %.4f; price paid per unit work: GreFar %.4f, Always %.4f\n",
		res.MeanPriceDC1, res.GreFarPricePaid, res.AlwaysPricePaid)
	if csvPath != "" {
		return writeCSVFile(csvPath,
			[]string{"price_dc1", "grefar_work", "always_work"},
			[][]float64{res.PriceDC1, res.GreFarWork, res.AlwaysWork})
	}
	return nil
}

func runWorkShare(out io.Writer, cfg experiments.Config) error {
	ws, err := experiments.WorkShare(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "average work per slot scheduled per data center (V=7.5, beta=100):\n")
	fmt.Fprintf(out, "  dc1=%.3f dc2=%.3f dc3=%.3f   (paper: 33.967, 48.502, 14.770)\n", ws[0], ws[1], ws[2])
	return nil
}

func runTheorem1(out io.Writer, cfg experiments.Config) error {
	if cfg.Slots > 24*20 {
		cfg.Slots = 24 * 20 // the frame LPs dominate runtime; cap the horizon
	}
	res, err := experiments.Theorem1(cfg, nil, 12)
	if err != nil {
		return err
	}
	gaps := res.Gap()
	table := make([][]string, len(res.V))
	for x := range res.V {
		table[x] = []string{
			strconv.FormatFloat(res.V[x], 'g', -1, 64),
			report.FormatFloat(res.MaxQueue[x], 1),
			report.FormatFloat(res.AvgCost[x], 3),
			report.FormatFloat(gaps[x], 3),
			report.FormatFloat(res.FinalBacklog[x], 1),
		}
	}
	if err := report.Table(out, []string{"V", "Max Queue (O(V))", "Avg Cost", "Gap to Lookahead (O(1/V))", "Final Backlog"}, table); err != nil {
		return err
	}
	fmt.Fprintf(out, "T-step lookahead benchmark (T=%d): %.3f\n", res.T, res.LookaheadCost)
	return nil
}

func runAblation(out io.Writer, cfg experiments.Config) error {
	gl, err := experiments.AblationGreedyVsLP(experiments.Config{Seed: cfg.Seed, Slots: 200}, 100)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "greedy vs LP slot solver: max objective diff %.2e, speedup %.1fx (greedy %v, LP %v)\n",
		gl.MaxObjectiveDiff, gl.Speedup, gl.GreedyTime, gl.LPTime)
	fw, err := experiments.AblationFWIters(experiments.Config{Seed: cfg.Seed, Slots: 500}, nil, 10)
	if err != nil {
		return err
	}
	for x, it := range fw.Iters {
		fmt.Fprintf(out, "frank-wolfe iters=%-4d relative objective gap %.2e\n", it, fw.RelGap[x])
	}
	tb, err := experiments.AblationRoutingTieBreak(experiments.Config{Seed: cfg.Seed, Slots: cfg.Slots})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "routing ties at V=0.1: split-ties energy %.3f (work %v) vs first-site %.3f (work %v)\n",
		tb.SplitEnergy, tb.SplitWork, tb.FirstEnergy, tb.FirstWork)
	return nil
}

// runEvents replays the reference simulation through the public facade with
// a JSONL slot-event observer attached to both the scheduler and the
// simulator, streaming two telemetry.SlotEvents per slot — origin "decide"
// (with solver diagnostics) and origin "sim" (with realized energy,
// fairness, and job counts) — for external analysis.
func runEvents(ctx context.Context, out io.Writer, cfg experiments.Config, v, beta float64, path string) error {
	in, err := grefar.ReferenceInputs(cfg.Seed, cfg.Slots)
	if err != nil {
		return err
	}
	w := out
	var f *os.File
	if path != "" {
		f, err = os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	jsonl := grefar.NewJSONLObserver(bw)
	s, err := grefar.New(in.Cluster,
		grefar.WithV(v),
		grefar.WithBeta(beta),
		grefar.WithObserver(jsonl),
	)
	if err != nil {
		return err
	}
	res, simErr := grefar.SimulateContext(ctx, in, s,
		grefar.WithSlots(cfg.Slots),
		grefar.WithObserver(jsonl),
		grefar.WithCheck(cfg.Check),
	)
	// Flush even when the run stopped early (cancellation), so the stream
	// never ends mid-line.
	if err := jsonl.Err(); err != nil {
		return fmt.Errorf("writing events: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if simErr != nil {
		return simErr
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote slot events for %d slots to %s\n", res.Slots, path)
	}
	return nil
}

func writeCSVFile(path string, headers []string, cols [][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := report.WriteCSV(f, headers, cols); err != nil {
		return err
	}
	return f.Close()
}
