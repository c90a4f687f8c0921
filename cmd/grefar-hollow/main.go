// Command grefar-hollow runs a kubemark-style hollow fleet: thousands of
// real agent state machines hosted in one process behind a multiplexed
// TCP listener, driven by the real central controller for a fixed
// horizon. It is the scale harness for the distributed control plane — the
// way to watch gather/decide/scatter, health tracking, and degraded-mode
// masking behave at fleet sizes no laptop could host as real processes.
//
// Usage:
//
//	grefar-hollow [-agents 1000] [-slots 60] [-seed 2012] [-conns 4]
//	              [-kill-frac 0.05] [-kill-at slots/3]
//	              [-revive-at 2*slots/3] [-V 7.5] [-beta 100] [-check]
//	              [-metrics :9300] [-pprof]
//
// With -kill-frac > 0 the harness kills that fraction of the fleet at
// -kill-at and revives it at -revive-at, so one run demonstrates the full
// mask -> probe -> resync -> rejoin cycle; the invariant checker (-check,
// default on) verifies every applied slot. With -metrics, the controller's
// health gauges, RTT histograms, and slot telemetry are served on /metrics.
// The fleet's MuxConns put the loop on its batch path: one frame per
// connection per phase.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/hollow"
	"grefar/internal/invariant"
	"grefar/internal/telemetry"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "grefar-hollow:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("grefar-hollow", flag.ContinueOnError)
	agents := fs.Int("agents", 1000, "hollow fleet size (one real agent state machine per site)")
	slots := fs.Int("slots", 60, "horizon in slots")
	seed := fs.Int64("seed", 2012, "seed for the synthetic workload")
	conns := fs.Int("conns", 0, "multiplexed client connections carrying the fleet's traffic (0 = default)")
	killFrac := fs.Float64("kill-frac", 0, "fraction of agents killed mid-run (0 disables the outage)")
	killAt := fs.Int("kill-at", 0, "slot the outage starts (default slots/3)")
	reviveAt := fs.Int("revive-at", 0, "slot the killed agents come back (default 2*slots/3)")
	v := fs.Float64("V", 7.5, "cost-delay parameter")
	beta := fs.Float64("beta", 100, "energy-fairness parameter")
	check := fs.Bool("check", true, "verify per-slot invariants on the applied trajectory")
	metricsAddr := fs.String("metrics", "", "address to serve /metrics and /healthz on (empty disables)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ on the metrics mux")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *agents <= 0 || *slots <= 0 {
		return fmt.Errorf("need positive -agents and -slots")
	}
	if *killFrac < 0 || *killFrac >= 1 {
		return fmt.Errorf("-kill-frac %v outside [0,1)", *killFrac)
	}
	if *killAt <= 0 {
		*killAt = *slots / 3
	}
	if *reviveAt <= 0 {
		*reviveAt = 2 * *slots / 3
	}
	if *killFrac > 0 && !(*killAt < *reviveAt && *reviveAt < *slots) {
		return fmt.Errorf("need kill-at < revive-at < slots, got %d, %d, %d", *killAt, *reviveAt, *slots)
	}

	in, err := hollow.NewScaleInputs(*seed, *agents, *slots)
	if err != nil {
		return err
	}
	fleet, err := hollow.NewFleet(in, hollow.Options{Conns: *conns})
	if err != nil {
		return err
	}
	defer fleet.Close()

	reg := telemetry.NewRegistry()
	obs := []telemetry.SlotObserver{telemetry.NewRegistryObserver(reg)}
	var ck *invariant.Checker
	if *check {
		ck = invariant.NewChecker(in.Cluster, invariant.CheckerOptions{})
		obs = append(obs, ck)
	}
	g, err := core.New(in.Cluster, core.Config{V: *v, Beta: *beta})
	if err != nil {
		return err
	}
	ct, err := controller.New(in.Cluster, g, fleet.Conns(),
		controller.WithFailurePolicy(controller.Degrade),
		controller.WithObserver(telemetry.Multi(obs...)),
		controller.WithHealthMetrics(reg),
	)
	if err != nil {
		return err
	}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		metricsSrv = &http.Server{
			Addr:    *metricsAddr,
			Handler: telemetry.NewMux(reg, telemetry.MuxOptions{EnablePprof: *pprofOn}),
		}
		go metricsSrv.ListenAndServe()
		defer metricsSrv.Close()
	}

	killed := killSet(*agents, *killFrac)
	fmt.Fprintf(out, "hollow fleet: %d agents on %s, %d slots", fleet.N(), fleet.Addr(), *slots)
	if len(killed) > 0 {
		fmt.Fprintf(out, ", killing %d agents over [%d,%d)", len(killed), *killAt, *reviveAt)
	}
	fmt.Fprintln(out)

	ticks := make([]time.Duration, 0, *slots)
	var energy float64
	degraded := 0
	start := time.Now()
	for t := 0; t < *slots; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// A dead accept loop would otherwise surface only as gather timeouts
		// slots later; fail the run the moment Serve reports it.
		select {
		case serr := <-fleet.ServeErr():
			if serr != nil {
				return fmt.Errorf("slot %d: fleet listener died: %w", t, serr)
			}
		default:
		}
		if len(killed) > 0 && t == *killAt {
			for _, i := range killed {
				fleet.Kill(i)
			}
		}
		if len(killed) > 0 && t == *reviveAt {
			for _, i := range killed {
				fleet.Revive(i)
			}
		}
		t0 := time.Now()
		_, _, acks, err := ct.RunSlotContext(ctx, t, in.Workload.Arrivals(t))
		if err != nil {
			return fmt.Errorf("slot %d: %w", t, err)
		}
		ticks = append(ticks, time.Since(t0))
		for _, ack := range acks {
			energy += ack.Energy
		}
		for _, h := range ct.Health() {
			if h != controller.Healthy {
				degraded++
				break
			}
		}
	}
	total := time.Since(start)
	if ck != nil {
		if err := ck.Err(); err != nil {
			return fmt.Errorf("invariant check: %w", err)
		}
	}

	healthy := 0
	for _, h := range ct.Health() {
		if h == controller.Healthy {
			healthy++
		}
	}
	sort.Slice(ticks, func(a, b int) bool { return ticks[a] < ticks[b] })
	fmt.Fprintf(out, "completed %d slots in %v (%.1f slots/s)\n", *slots, total.Round(time.Millisecond), float64(*slots)/total.Seconds())
	fmt.Fprintf(out, "slot tick p50 %v  p99 %v\n",
		ticks[len(ticks)/2].Round(10*time.Microsecond), ticks[(len(ticks)*99)/100].Round(10*time.Microsecond))
	fmt.Fprintf(out, "degraded slots %d; energy/slot %.1f; final healthy %d/%d\n",
		degraded, energy/float64(*slots), healthy, fleet.N())
	if *check {
		fmt.Fprintln(out, "invariant checker: ok on every applied slot")
	}
	if healthy != fleet.N() {
		return fmt.Errorf("%d agents never rejoined", fleet.N()-healthy)
	}
	return nil
}

// killSet picks which agents a kill-frac outage takes down: every site from 1
// upward with a stride, never site 0, so the outage spreads across the fleet's
// site classes instead of taking one contiguous stripe.
func killSet(n int, frac float64) []int {
	k := int(float64(n) * frac)
	if k <= 0 {
		return nil
	}
	if k >= n {
		k = n - 1
	}
	out := make([]int, k)
	for i := range out {
		out[i] = 1 + (i*7)%(n-1)
	}
	seen := make(map[int]bool, k)
	uniq := out[:0]
	for _, i := range out {
		if !seen[i] {
			seen[i] = true
			uniq = append(uniq, i)
		}
	}
	return uniq
}
