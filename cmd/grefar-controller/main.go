// Command grefar-controller runs the central scheduler of the distributed
// GreFar deployment: it connects to one agent per data center, drives the
// per-slot control loop for the requested horizon, and prints the run's
// metrics. With -metrics-addr it also serves Prometheus-format telemetry
// (/metrics), a liveness probe (/healthz), and, behind -pprof, the standard
// profiling endpoints.
//
// Usage:
//
//	grefar-controller -agents 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	                  [-V 7.5] [-beta 100] [-slots 2000] [-seed 2012] \
//	                  [-policy grefar|always] \
//	                  [-metrics-addr 127.0.0.1:9090] [-pprof]
//
// The seed must match the agents' so the controller's workload lines up with
// the world the agents simulate. Agent connections redial with capped
// exponential backoff on transport failures (-retries bounds the attempts).
// SIGINT or SIGTERM stops the control loop at the next slot boundary, and
// also aborts any in-flight reconnection backoff immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/model"
	"grefar/internal/sched"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
	"grefar/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "grefar-controller:", err)
		os.Exit(1)
	}
}

// app is a fully wired controller run: the control loop plus its
// observability mux. Tests build one with buildApp and mount Metrics on an
// httptest server instead of a real listener.
type app struct {
	cluster *model.Cluster
	ctrl    *controller.Controller
	// Metrics serves /metrics, /healthz, and optionally /debug/pprof/.
	Metrics http.Handler

	slots       int
	wl          workload.Generator
	metricsAddr string
	conns       []*transport.ReconnectClient
}

// Close releases the agent connections.
func (a *app) Close() {
	for _, cli := range a.conns {
		cli.Close()
	}
}

// runLoop drives the control loop until the horizon or ctx cancellation and
// prints the run report.
func (a *app) runLoop(ctx context.Context, out io.Writer) error {
	start := time.Now()
	res, err := a.ctrl.RunContext(ctx, a.slots, a.wl)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "policy %s over %d slots in %v\n", res.SchedulerName, res.Slots, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(out, "  avg energy cost      %.3f\n", res.AvgEnergy)
	fmt.Fprintf(out, "  avg fairness score   %.4f\n", res.AvgFairness)
	for i, d := range res.AvgLocalDelay {
		fmt.Fprintf(out, "  avg delay %-10s %.3f slots (%.2f work/slot)\n", a.cluster.DataCenters[i].Name, d, res.AvgWorkPerDC[i])
	}
	fmt.Fprintf(out, "  jobs arrived/processed %.0f / %.0f\n", res.TotalArrived, res.TotalProcessed)
	return nil
}

// buildApp parses flags, dials the agents, and wires the scheduler, the
// controller, and the telemetry registry together.
func buildApp(args []string) (*app, error) {
	fs := flag.NewFlagSet("grefar-controller", flag.ContinueOnError)
	agents := fs.String("agents", "", "comma-separated agent addresses, one per data center, in site order")
	v := fs.Float64("V", 7.5, "cost-delay parameter")
	beta := fs.Float64("beta", 100, "energy-fairness parameter")
	slots := fs.Int("slots", 2000, "horizon in hourly slots")
	seed := fs.Int64("seed", 2012, "workload seed (must match the agents)")
	policy := fs.String("policy", "grefar", "scheduling policy: grefar or always")
	timeout := fs.Duration("timeout", 10*time.Second, "per-RPC timeout")
	retries := fs.Int("retries", 2, "redial attempts per RPC after a transport failure (with capped exponential backoff)")
	metricsAddr := fs.String("metrics-addr", "", "address to serve /metrics and /healthz on (empty disables)")
	pprofOn := fs.Bool("pprof", false, "also mount /debug/pprof/ on the metrics address")
	failurePolicy := fs.String("failure-policy", "degrade", "reaction to agent failures: degrade (mask the site and keep scheduling) or strict (abort the run)")
	suspectAfter := fs.Int("suspect-after", 1, "consecutive failed interactions before an agent is masked (degrade policy)")
	deadAfter := fs.Int("dead-after", 3, "consecutive failed interactions before an agent leaves the gather set and is heartbeat-probed instead")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	policyVal, err := controller.ParseFailurePolicy(*failurePolicy)
	if err != nil {
		return nil, err
	}

	c := model.NewReferenceCluster()
	addrs := strings.Split(*agents, ",")
	if *agents == "" || len(addrs) != c.N() {
		return nil, fmt.Errorf("need exactly %d agent addresses via -agents, got %q", c.N(), *agents)
	}

	reg := telemetry.NewRegistry()
	obs := telemetry.NewRegistryObserver(reg)
	names := make([]string, c.N())
	for i, dc := range c.DataCenters {
		names[i] = dc.Name
	}
	obs.SetDCNames(names)

	a := &app{
		cluster:     c,
		slots:       *slots,
		metricsAddr: *metricsAddr,
		Metrics:     telemetry.NewMux(reg, telemetry.MuxOptions{EnablePprof: *pprofOn}),
	}
	ok := false
	defer func() {
		if !ok {
			a.Close()
		}
	}()

	conns := make([]controller.AgentConn, len(addrs))
	for i, addr := range addrs {
		// ReconnectClient dials lazily and retries with capped exponential
		// backoff; the run context threads through the controller so SIGINT
		// aborts a retry loop mid-backoff instead of waiting it out.
		cli := transport.NewReconnectClient(strings.TrimSpace(addr), *timeout, *retries)
		a.conns = append(a.conns, cli)
		var pong transport.Ping
		if err := cli.Call(transport.KindPing, transport.Ping{Nonce: uint64(i)}, &pong); err != nil {
			return nil, fmt.Errorf("agent %d ping: %w", i, err)
		}
		conns[i] = cli
	}

	var sch sched.Scheduler
	switch *policy {
	case "grefar":
		sch, err = core.New(c, core.Config{V: *v, Beta: *beta, Observer: obs})
	case "always":
		sch, err = sched.NewAlways(c)
	default:
		err = fmt.Errorf("unknown policy %q", *policy)
	}
	if err != nil {
		return nil, fmt.Errorf("scheduler: %w", err)
	}

	a.wl, err = workload.NewReferenceWorkload(*seed+1, c, *slots)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	a.ctrl, err = controller.New(c, sch, conns,
		controller.WithObserver(obs),
		controller.WithFailurePolicy(policyVal),
		controller.WithHealthThresholds(*suspectAfter, *deadAfter),
		controller.WithHealthMetrics(reg),
	)
	if err != nil {
		return nil, err
	}
	ok = true
	return a, nil
}

func run(ctx context.Context, args []string, out io.Writer) error {
	a, err := buildApp(args)
	if err != nil {
		return err
	}
	defer a.Close()

	if a.metricsAddr != "" {
		lis, err := net.Listen("tcp", a.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		srv := &http.Server{Handler: a.Metrics}
		go func() { _ = srv.Serve(lis) }()
		defer srv.Close()
		fmt.Fprintf(out, "metrics on http://%s/metrics\n", lis.Addr())
	}

	return a.runLoop(ctx, out)
}
