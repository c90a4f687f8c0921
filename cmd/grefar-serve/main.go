// Command grefar-serve runs GreFar as a long-lived scheduling service: jobs
// arrive over HTTP (single objects, arrays, or JSONL batches), slots execute
// on a wall-clock cadence or on demand (POST /v1/tick), the V/beta/tariff
// knobs hot-reload at slot boundaries (POST /v1/reconfigure), and the whole
// session state — queues with their arrival slots, the solver's warm-start
// iterate, the pending ingest buffer — survives restarts through durable
// checkpoints.
//
// Usage:
//
//	grefar-serve -listen 127.0.0.1:8080 -snapshot-dir /var/lib/grefar \
//	             [-seed 2012] [-v 7.5] [-beta 100] [-check] \
//	             [-snapshot-every 20] [-tick 1s] [-pprof] \
//	             [-agents 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	              [-timeout 10s] [-retries 2] [-failure-policy degrade] \
//	              [-suspect-after 1] [-dead-after 3]]
//
// Without -agents the sites are simulated in process from -seed. With
// -agents the daemon is the central scheduler of the distributed deployment:
// it drives one grefar-agent per data center (started with the same -seed,
// in site order) over TCP, and the agents hold the local queues. A checkpoint
// then holds the central queues and the scheduler's shadow of every agent's
// queues; after a restart the first slot rewinds every agent onto it. The
// agent connections redial with capped exponential backoff (-retries bounds
// the attempts), and SIGINT or SIGTERM aborts that backoff at once. The
// grefar_controller_* agent-health families join /metrics.
//
// With -snapshot-dir the daemon restores the newest intact snapshot at boot
// (falling back to the previous generation if the current one is torn),
// checkpoints every -snapshot-every served slots, and writes a final
// checkpoint on SIGINT/SIGTERM. With -tick 0 (the default) slots execute
// only via POST /v1/tick, which is the deterministic mode: drive it from a
// cron or an upstream admission controller.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/serve"
	"grefar/internal/serve/snapshot"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "grefar-serve:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	a, err := newApp(ctx, args)
	if err != nil {
		return err
	}
	defer a.Close()
	if a.Boot != nil {
		msg := "restored"
		if a.Boot.Fallback {
			msg = "restored from fallback generation (current snapshot was rejected)"
		}
		fmt.Printf("grefar-serve: %s %s at slot %d\n", msg, a.Boot.Path, a.Server.Session().Slot())
	}

	lis, err := net.Listen("tcp", a.listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: a.Server}
	go func() { _ = srv.Serve(lis) }()
	defer srv.Close()
	fmt.Printf("grefar-serve: serving on http://%s (slot %d)\n", lis.Addr(), a.Server.Session().Slot())

	if a.tickEvery > 0 {
		go a.tickLoop(ctx)
	}

	<-ctx.Done()
	fmt.Println("grefar-serve: shutting down")
	return a.Shutdown()
}

// app is a built daemon: the HTTP server fronting the session, plus what run
// needs to serve and shut it down. Tests construct one with newApp and mount
// a.Server on an httptest server instead of a real listener.
type app struct {
	// Server handles every endpoint; it is the daemon's http.Handler.
	Server *serve.Server
	// Boot describes the snapshot restored at construction; nil on a fresh
	// start (or without -snapshot-dir).
	Boot *snapshot.LoadResult

	listen    string
	tickEvery time.Duration
	hasStore  bool
	conns     []*transport.ReconnectClient
}

// tickLoop executes one slot per -tick interval until the context ends.
// Failed slots are logged and retried next interval: a transient checkpoint
// failure must not kill the control loop.
func (a *app) tickLoop(ctx context.Context) {
	t := time.NewTicker(a.tickEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if _, err := a.Server.Tick(ctx); err != nil && ctx.Err() == nil {
				fmt.Fprintln(os.Stderr, "grefar-serve: tick:", err)
			}
		}
	}
}

// Shutdown writes the graceful-exit checkpoint (when a store is configured)
// and closes the app.
func (a *app) Shutdown() error {
	var err error
	if a.hasStore {
		if err = a.Server.Checkpoint(); err == nil {
			fmt.Printf("grefar-serve: final checkpoint at slot %d\n", a.Server.Session().Slot())
		}
	}
	if cerr := a.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close releases the app without a graceful checkpoint (the error path): it
// closes the session and the agent connections.
func (a *app) Close() error {
	closeAll(a.conns)
	return a.Server.Session().Close()
}

func closeAll(conns []*transport.ReconnectClient) {
	for _, cli := range conns {
		cli.Close()
	}
}

// newApp parses flags and assembles the session, snapshot store, and HTTP
// server, restoring the newest snapshot when one exists. ctx bounds every
// agent call the session makes.
func newApp(ctx context.Context, args []string) (*app, error) {
	fs := flag.NewFlagSet("grefar-serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "address to listen on")
	seed := fs.Int64("seed", 2012, "environment seed (prices and availability; must match the agents')")
	horizon := fs.Int("horizon", 4096, "length of the materialized environment (slots wrap past it)")
	v := fs.Float64("v", 7.5, "cost-delay parameter V")
	beta := fs.Float64("beta", 100, "energy-fairness parameter beta")
	check := fs.Bool("check", false, "re-verify every slot against the paper's queue dynamics")
	snapDir := fs.String("snapshot-dir", "", "directory for durable checkpoints (empty disables)")
	snapEvery := fs.Int("snapshot-every", 20, "checkpoint automatically every n served slots (0 disables)")
	tick := fs.Duration("tick", 0, "wall-clock slot length (0 = slots execute only via POST /v1/tick)")
	pprofOn := fs.Bool("pprof", false, "mount /debug/pprof/ on the handler")
	agentList := fs.String("agents", "", "comma-separated agent addresses, one per data center, in site order (empty simulates the sites in process)")
	timeout := fs.Duration("timeout", 10*time.Second, "per-RPC agent timeout")
	retries := fs.Int("retries", 2, "redial attempts per agent RPC after a transport failure (with capped exponential backoff)")
	failurePolicy := fs.String("failure-policy", "degrade", "reaction to agent failures: degrade (mask the site and keep scheduling) or strict (fail the slot)")
	suspectAfter := fs.Int("suspect-after", 1, "consecutive failed interactions before an agent is masked (degrade policy)")
	deadAfter := fs.Int("dead-after", 3, "consecutive failed interactions before an agent leaves the gather set and is heartbeat-probed instead")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	policy, err := controller.ParseFailurePolicy(*failurePolicy)
	if err != nil {
		return nil, err
	}

	in, err := sim.NewReferenceInputs(*seed, *horizon)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	// Serving mode: every arrival comes through the ingest endpoints.
	in.Workload = nil
	c := in.Cluster

	reg := telemetry.NewRegistry()
	obs := telemetry.NewRegistryObserver(reg)
	names := make([]string, c.N())
	for i, dc := range c.DataCenters {
		names[i] = dc.Name
	}
	obs.SetDCNames(names)
	cfg := serve.SessionConfig{
		Inputs:    in,
		Scheduler: core.Config{V: *v, Beta: *beta, Observer: obs},
		Sim:       sim.Options{ValidateActions: true, Check: *check, Observer: obs, Context: ctx},
	}

	var conns []*transport.ReconnectClient
	ok := false
	defer func() {
		if !ok {
			closeAll(conns)
		}
	}()
	if *agentList != "" {
		addrs := strings.Split(*agentList, ",")
		if len(addrs) != c.N() {
			return nil, fmt.Errorf("need exactly %d agent addresses via -agents, got %q", c.N(), *agentList)
		}
		for i, addr := range addrs {
			// A ReconnectClient dials lazily and redials with backoff; ctx
			// threads through every call, so SIGINT aborts a backoff mid-wait.
			cli := transport.NewReconnectClient(strings.TrimSpace(addr), *timeout, *retries)
			conns = append(conns, cli)
			var pong transport.Ping
			if err := cli.CallContext(ctx, transport.KindPing, transport.Ping{Nonce: uint64(i)}, &pong); err != nil {
				return nil, fmt.Errorf("agent %d ping: %w", i, err)
			}
			cfg.Agents = append(cfg.Agents, cli)
		}
		cfg.Controller = []controller.Option{
			controller.WithFailurePolicy(policy),
			controller.WithHealthThresholds(*suspectAfter, *deadAfter),
			controller.WithHealthMetrics(reg),
		}
	}

	s, err := serve.NewSession(cfg)
	if err != nil {
		return nil, err
	}

	var store *snapshot.Store
	if *snapDir != "" {
		store, err = snapshot.NewStore(*snapDir)
		if err != nil {
			return nil, fmt.Errorf("snapshot store: %w", err)
		}
	}

	sv, err := serve.NewServer(serve.ServerConfig{
		Session:       s,
		Store:         store,
		SnapshotEvery: *snapEvery,
		Registry:      reg,
		EnablePprof:   *pprofOn,
	})
	if err != nil {
		return nil, err
	}
	boot, err := sv.RestoreOnBoot()
	if err != nil {
		return nil, err
	}
	ok = true
	return &app{
		Server:    sv,
		Boot:      boot,
		listen:    *listen,
		tickEvery: *tick,
		hasStore:  store != nil,
		conns:     conns,
	}, nil
}
