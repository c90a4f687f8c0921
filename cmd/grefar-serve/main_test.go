package main

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"grefar"
	"grefar/internal/agent"
	"grefar/internal/sim"
	"grefar/internal/transport"
)

// e2eSchedule is the deterministic ingest stream for the end-to-end test:
// the jobs POSTed before each slot's tick.
func e2eSchedule(slots, types int) [][]grefar.Job {
	out := make([][]grefar.Job, slots)
	for s := range out {
		var jobs []grefar.Job
		for typ := 0; typ < types; typ++ {
			if n := (s + 3*typ) % 7; n > 0 {
				jobs = append(jobs, grefar.Job{Type: typ, Count: n})
			}
		}
		out[s] = jobs
	}
	return out
}

func mustPost(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

// lengthsJSON marshals a backlog snapshot; the end-to-end comparison is on
// these bytes, so "matches the golden run" means byte-for-byte.
func lengthsJSON(t *testing.T, l grefar.QueueLengths) string {
	t.Helper()
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// startAgents serves one reference agent per data center on loopback TCP,
// exactly as the grefar-agent binary would with -seed 2012 and the given
// horizon, and returns the agents with their comma-joined addresses.
func startAgents(t *testing.T, horizon int) ([]*agent.Agent, []*transport.MuxServer, string) {
	t.Helper()
	in, err := sim.NewReferenceInputs(2012, horizon)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Cluster
	agents := make([]*agent.Agent, c.N())
	srvs := make([]*transport.MuxServer, c.N())
	addrs := make([]string, c.N())
	for i := range agents {
		agents[i], err = agent.New(agent.Config{Cluster: c, DataCenter: i, Price: in.Prices[i], Availability: in.Availability})
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = agents[i].Serve(lis)
		t.Cleanup(func() { srvs[i].Close() })
		addrs[i] = srvs[i].Addr()
	}
	return agents, srvs, strings.Join(addrs, ",")
}

// queueLens reads every agent's local queue lengths.
func queueLens(agents []*agent.Agent) [][]float64 {
	out := make([][]float64, len(agents))
	for i, a := range agents {
		out[i] = a.QueueLens()
	}
	return out
}

// TestServeKillRestartMatchesGolden is the serving-mode acceptance test:
// ingest jobs over HTTP and tick, kill the daemon without any graceful
// shutdown, restart it from the snapshot directory, tick to slot 40 — and
// require the full backlog trajectory to match an uninterrupted run
// byte-for-byte, with the invariant checker on throughout. In process the
// daemon dies at the slot-20 checkpoint. On three loopback agents it dies at
// slot 23, three slots past the checkpoint, so the restart must rewind the
// agents onto it; their final local queues must then equal the uninterrupted
// run's too.
func TestServeKillRestartMatchesGolden(t *testing.T) {
	const slots, checkpoint, types = 40, 20, 8
	schedule := e2eSchedule(slots, types)
	flags := []string{
		"-seed", "2012", "-horizon", "64", "-v", "7.5", "-beta", "100",
		"-check", "-snapshot-every", "5",
	}
	ctx := context.Background()

	drive := func(a *app, ts *httptest.Server, from, to int, got []string) {
		t.Helper()
		for slot := from; slot < to; slot++ {
			if jobs := schedule[slot]; len(jobs) > 0 {
				body, err := json.Marshal(jobs)
				if err != nil {
					t.Fatal(err)
				}
				mustPost(t, ts.URL+"/v1/jobs", string(body))
			}
			mustPost(t, ts.URL+"/v1/tick", "")
			got[slot] = lengthsJSON(t, a.Server.Session().Lengths())
		}
	}
	compare := func(got, want []string, to int) {
		t.Helper()
		for slot := 0; slot < to; slot++ {
			if got[slot] != want[slot] {
				t.Fatalf("backlog trajectory diverged at slot %d:\n got %s\nwant %s", slot, got[slot], want[slot])
			}
		}
	}

	// Golden: the uninterrupted session, driven through the public API with
	// the exact configuration the daemon builds from these flags.
	in, err := grefar.ReferenceInputs(2012, 64)
	if err != nil {
		t.Fatal(err)
	}
	in.Workload = nil
	golden, err := grefar.Open(
		grefar.WithInputs(in),
		grefar.WithV(7.5), grefar.WithBeta(100),
		grefar.WithActionValidation(true), grefar.WithCheck(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, slots)
	for slot := 0; slot < slots; slot++ {
		if _, err := golden.Submit(schedule[slot]); err != nil {
			t.Fatal(err)
		}
		if _, err := golden.Tick(ctx); err != nil {
			t.Fatal(err)
		}
		want[slot] = lengthsJSON(t, golden.Lengths())
	}

	for _, tc := range []struct {
		name   string
		agents bool
		killAt int
	}{
		{"in-process", false, checkpoint},
		{"3-agents", true, checkpoint + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flags := append([]string{"-snapshot-dir", filepath.Join(t.TempDir(), "snaps")}, flags...)
			want, wantLens := want, [][]float64(nil)
			var agents []*agent.Agent
			if tc.agents {
				// The uninterrupted 3-agent run, on agents of its own and
				// with no snapshot directory.
				goldenAgents, _, addrs := startAgents(t, 64)
				g, err := newApp(ctx, append([]string{"-agents", addrs}, flags[2:]...))
				if err != nil {
					t.Fatal(err)
				}
				gts := httptest.NewServer(g.Server)
				agentWant := make([]string, slots)
				drive(g, gts, 0, slots, agentWant)
				gts.Close()
				g.Close()
				// The agents hold the local queues the in-process engine
				// holds: the distributed trajectory is the golden one.
				compare(agentWant, want, slots)
				want, wantLens = agentWant, queueLens(goldenAgents)

				var addrs2 string
				agents, _, addrs2 = startAgents(t, 64)
				flags = append([]string{"-agents", addrs2}, flags...)
			}
			got := make([]string, slots)

			// Phase 1: boot fresh, ingest over HTTP, tick to the kill. With
			// cadence 5 the last durable checkpoint lands at slot 20.
			a1, err := newApp(ctx, flags)
			if err != nil {
				t.Fatal(err)
			}
			if a1.Boot != nil {
				t.Fatalf("fresh boot restored %+v", a1.Boot)
			}
			ts1 := httptest.NewServer(a1.Server)
			drive(a1, ts1, 0, tc.killAt, got)
			ts1.Close()
			compare(got, want, tc.killAt)
			// SIGKILL: the process dies here. No graceful checkpoint, and the
			// session is never closed; the dead process's sockets close with
			// it. The restart may rely only on what the cadence already made
			// durable.
			closeAll(a1.conns)

			// Phase 2: a new process boots from the snapshot directory and
			// resumes at the checkpoint.
			a2, err := newApp(ctx, flags)
			if err != nil {
				t.Fatal(err)
			}
			if a2.Boot == nil || a2.Boot.Fallback {
				t.Fatalf("restart did not restore cleanly: %+v", a2.Boot)
			}
			if slot := a2.Server.Session().Slot(); slot != checkpoint {
				t.Fatalf("restarted at slot %d, want %d", slot, checkpoint)
			}
			ts2 := httptest.NewServer(a2.Server)
			defer ts2.Close()
			drive(a2, ts2, checkpoint, slots, got)
			compare(got, want, slots)
			if tc.agents {
				if lens := queueLens(agents); !reflect.DeepEqual(lens, wantLens) {
					t.Fatalf("agents' final local queues %v, want %v", lens, wantLens)
				}
			}

			// Graceful shutdown writes a final checkpoint at slot 40...
			if err := a2.Shutdown(); err != nil {
				t.Fatal(err)
			}
			// ...which the next boot resumes from.
			a3, err := newApp(ctx, flags)
			if err != nil {
				t.Fatal(err)
			}
			defer a3.Close()
			if a3.Boot == nil || a3.Server.Session().Slot() != slots {
				t.Fatalf("post-shutdown boot: %+v at slot %d", a3.Boot, a3.Server.Session().Slot())
			}
		})
	}
}

// TestServeFlagValidation exercises the daemon's constructor error paths.
func TestServeFlagValidation(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{"-v", "-1"},
		{"-bogus"},
		{"-failure-policy", "nope"},
	} {
		if a, err := newApp(ctx, args); err == nil {
			a.Close()
			t.Errorf("args %q accepted", args)
		}
	}
}

// TestServeAgentsFlagValidation exercises the -agents error paths: a wrong
// address count, unreachable agents, and a bad failure policy with live
// agents behind it.
func TestServeAgentsFlagValidation(t *testing.T) {
	ctx := context.Background()
	_, _, addrs := startAgents(t, 64)
	for _, args := range [][]string{
		{"-agents", "a,b"}, // the reference cluster has three sites
		{"-agents", "127.0.0.1:1,127.0.0.1:1,127.0.0.1:1", "-timeout", "200ms"},
		{"-agents", addrs, "-horizon", "64", "-failure-policy", "nope"},
	} {
		if a, err := newApp(ctx, args); err == nil {
			a.Close()
			t.Errorf("args %q accepted", args)
		}
	}
}

// TestServeAgentsMetrics runs three agent-driven slots and scrapes /metrics
// as Prometheus would: the slot, scheduler and serve families, and the
// grefar_controller_* agent-health families.
func TestServeAgentsMetrics(t *testing.T) {
	_, _, addrs := startAgents(t, 64)
	a, err := newApp(context.Background(), []string{"-agents", addrs, "-horizon", "64", "-snapshot-every", "0", "-pprof"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ts := httptest.NewServer(a.Server)
	defer ts.Close()
	mustPost(t, ts.URL+"/v1/jobs", `[{"type":0,"count":3},{"type":5,"count":2}]`)
	mustPost(t, ts.URL+"/v1/tick?n=3", "")

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		`grefar_serve_ticks_total 3`,
		`grefar_slots_total{origin="controller"} 3`,
		`grefar_slots_total{origin="decide"} 3`,
		`grefar_queue_backlog{`,
		`grefar_dc_energy_cost_total{dc="dc1"}`,
		`grefar_dc_energy_cost_total{dc="dc3"}`,
		`grefar_solver_iterations_count{solver="frank-wolfe"} 3`,
		`grefar_drift`,
		`grefar_penalty`,
		`grefar_controller_agent_health{dc="0"} 0`,
		`grefar_controller_degraded_slots_total 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}
	if code, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d with -pprof, want 200", code)
	}
}

// TestServeCancelAbortsAgentBackoff kills an agent under a daemon allowed ten
// redials (about 13 s of backoff) and cancels the daemon's context while the
// slot is waiting between redials: the slot must give up at once.
func TestServeCancelAbortsAgentBackoff(t *testing.T) {
	_, srvs, addrs := startAgents(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, err := newApp(ctx, []string{"-agents", addrs, "-horizon", "64", "-snapshot-every", "0",
		"-retries", "10", "-failure-policy", "strict"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Server.Tick(context.Background()); err != nil {
		t.Fatal(err)
	}
	srvs[1].Close()
	done := make(chan error, 1)
	go func() {
		_, err := a.Server.Tick(context.Background())
		done <- err
	}()
	time.Sleep(300 * time.Millisecond) // the slot is now between redials
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("tick returned %v, want a cancellation error", err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("tick took %v to notice the cancel", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not abort the agent backoff")
	}
}

// TestServeStatusAndMetrics smoke-tests the observability surface end to end
// through the daemon's wiring (shared registry, DC-labeled families).
func TestServeStatusAndMetrics(t *testing.T) {
	a, err := newApp(context.Background(), []string{"-horizon", "64", "-snapshot-every", "0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ts := httptest.NewServer(a.Server)
	defer ts.Close()

	mustPost(t, ts.URL+"/v1/jobs", `{"type":0,"count":3}`)
	mustPost(t, ts.URL+"/v1/tick?n=2", "")

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Slot int     `json:"slot"`
		V    float64 `json:"v"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Slot != 2 || status.V != 7.5 {
		t.Fatalf("status: %+v", status)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"grefar_serve_ticks_total 2", "grefar_slot"} {
		if !strings.Contains(string(metrics), fam) {
			t.Fatalf("metrics missing %q", fam)
		}
	}
}
