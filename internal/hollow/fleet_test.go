package hollow

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"grefar/internal/controller"
	"grefar/internal/core"
	"grefar/internal/invariant"
	"grefar/internal/model"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
)

// startFleet builds inputs, a fleet, and a Degrade-mode controller with the
// invariant checker attached; the checker is returned for the final Err call.
func startFleet(t *testing.T, n, slots int) (*Fleet, *controller.Controller, *invariant.Checker, sim.Inputs) {
	t.Helper()
	in, err := NewScaleInputs(7, n, slots)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	g, err := core.New(in.Cluster, core.Config{V: 7.5, Beta: 100})
	if err != nil {
		t.Fatal(err)
	}
	ck := invariant.NewChecker(in.Cluster, invariant.CheckerOptions{})
	ct, err := controller.New(in.Cluster, g, f.Conns(),
		controller.WithObserver(telemetry.Multi(ck)),
		controller.WithFailurePolicy(controller.Degrade),
	)
	if err != nil {
		t.Fatal(err)
	}
	return f, ct, ck, in
}

// TestNewFleetRefusesInvalidCluster: the fleet validates its cluster before
// it listens, so an invalid one fails NewFleet with model.ErrInvalidCluster
// and leaves no listener and no goroutine behind.
func TestNewFleetRefusesInvalidCluster(t *testing.T) {
	in, err := NewScaleInputs(7, 64, 24)
	if err != nil {
		t.Fatal(err)
	}
	in.Cluster.JobTypes[1].Demand = -1
	before := runtime.NumGoroutine()
	f, err := NewFleet(in, Options{})
	if !errors.Is(err, model.ErrInvalidCluster) {
		if f != nil {
			f.Close()
		}
		t.Fatalf("NewFleet on an invalid cluster: %v, want model.ErrInvalidCluster", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines: %d before NewFleet, %d after it failed", before, got)
	}
}

func TestScaleInputsValidate(t *testing.T) {
	for _, n := range []int{1, 3, 64, 500} {
		in, err := NewScaleInputs(1, n, 48)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := in.Cluster.Validate(); err != nil {
			t.Fatalf("n=%d: invalid cluster: %v", n, err)
		}
		if got := in.Cluster.N(); got != n {
			t.Fatalf("n=%d: cluster has %d sites", n, got)
		}
		// The arrival trace must carry real load: an idle fleet measures
		// nothing but gather overhead.
		var jobs int
		for _, a := range in.Workload.Arrivals(0) {
			jobs += a
		}
		if jobs == 0 {
			t.Errorf("n=%d: slot 0 has no arrivals", n)
		}
	}
	if _, err := NewScaleInputs(1, 0, 10); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewScaleInputs(1, 3, 0); err == nil {
		t.Error("slots=0 accepted")
	}
}

// TestFleetRunsRealControlLoop drives a 64-agent fleet through real slots
// over the mux wire and checks work actually flows: queues move, energy is
// spent, and the invariant checker accepts every slot.
func TestFleetRunsRealControlLoop(t *testing.T) {
	const n, slots = 64, 12
	f, ct, ck, in := startFleet(t, n, slots)
	var energy float64
	for tt := 0; tt < slots; tt++ {
		_, _, acks, err := ct.RunSlot(tt, in.Workload.Arrivals(tt))
		if err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
		for _, ack := range acks {
			energy += ack.Energy
		}
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("invariant check: %v", err)
	}
	if energy <= 0 {
		t.Error("no energy spent across the run; the fleet did no work")
	}
	if f.TotalBacklog() < 0 {
		t.Error("negative fleet backlog")
	}
}

// TestFleetKillReviveRejoins kills a batch of agents mid-run, revives them,
// and requires the controller to mask, probe, and rejoin every one — with the
// invariant checker green across the entire trajectory.
func TestFleetKillReviveRejoins(t *testing.T) {
	const n, slots = 48, 36
	const killFrom, reviveAt = 10, 18
	f, ct, ck, in := startFleet(t, n, slots)
	killed := []int{1, 5, 9} // a small batch; the 5%-scale version runs in experiments
	sawDegraded := false
	for tt := 0; tt < slots; tt++ {
		if tt == killFrom {
			for _, i := range killed {
				f.Kill(i)
			}
		}
		if tt == reviveAt {
			for _, i := range killed {
				f.Revive(i)
			}
		}
		if _, _, _, err := ct.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
		if tt > killFrom && tt < reviveAt {
			for _, i := range killed {
				if ct.Health()[i] == controller.Healthy {
					t.Errorf("slot %d: killed agent %d still healthy", tt, i)
				}
			}
			sawDegraded = true
		}
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("invariant check: %v", err)
	}
	if !sawDegraded {
		t.Fatal("test never observed the degraded window")
	}
	for _, i := range killed {
		if got := ct.Health()[i]; got != controller.Healthy {
			t.Errorf("agent %d ended %v, want healthy", i, got)
		}
	}
}

// TestThousandAgentsWithMidRunKill is the fleet-scale acceptance run: 1000
// hollow agents in this one process, real slot ticks over the mux wire, 5% of
// the fleet (50 agents, strided across the site classes) killed at slot 3 and
// revived at slot 6, the invariant checker green on every slot, and every
// agent healthy again at the horizon.
func TestThousandAgentsWithMidRunKill(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-agent run skipped in -short mode")
	}
	const n, slots, killAt, reviveAt = 1000, 9, 3, 6
	f, ct, ck, in := startFleet(t, n, slots)
	killed := make(map[int]bool)
	for k := 0; len(killed) < n/20; k++ {
		killed[1+(k*7)%(n-1)] = true
	}
	degraded := 0
	for tt := 0; tt < slots; tt++ {
		for i := range killed {
			switch tt {
			case killAt:
				f.Kill(i)
			case reviveAt:
				f.Revive(i)
			}
		}
		if _, _, _, err := ct.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
		for i := range killed {
			if ct.Health()[i] != controller.Healthy {
				degraded++
				break
			}
		}
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("invariant check: %v", err)
	}
	if degraded == 0 {
		t.Fatal("the outage never masked an agent")
	}
	for i, h := range ct.Health() {
		if h != controller.Healthy {
			t.Errorf("agent %d ended %v, want healthy", i, h)
		}
	}
}

// TestFleetRestartResyncsFromShadow crash-restarts an agent (losing its local
// queues) and requires the controller's rejoin path to push the shadow state
// back so the trajectory continues exactly.
func TestFleetRestartResyncsFromShadow(t *testing.T) {
	const n, slots = 16, 30
	f, ct, ck, in := startFleet(t, n, slots)
	const victim, killAt, restartAt = 3, 8, 14
	for tt := 0; tt < slots; tt++ {
		if tt == killAt {
			f.Kill(victim)
		}
		if tt == restartAt {
			if err := f.Restart(victim); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, _, err := ct.RunSlot(tt, in.Workload.Arrivals(tt)); err != nil {
			t.Fatalf("slot %d: %v", tt, err)
		}
	}
	if err := ck.Err(); err != nil {
		t.Fatalf("invariant check: %v", err)
	}
	if got := ct.Health()[victim]; got != controller.Healthy {
		t.Errorf("restarted agent ended %v, want healthy", got)
	}
	// After rejoin the agent's physical queues must march with the fleet
	// again: a fresh agent left unsynced would sit at zero while the shadow
	// grows. Non-zero backlog on the victim proves the restore landed (the
	// scale inputs keep every site loaded).
	lens := f.Agent(victim).QueueLens()
	var sum float64
	for _, l := range lens {
		sum += l
	}
	if sum == 0 {
		t.Error("restarted agent has empty queues; shadow restore did not land")
	}
}

// TestFleetServeErrorSurfaces yanks the listener out from under the accept
// loop — the in-process stand-in for FD exhaustion or a dying NIC — and
// requires the failure to surface on ServeErr instead of wedging silently,
// and to come back from Close when the run loop never drained it.
func TestFleetServeErrorSurfaces(t *testing.T) {
	in, err := NewScaleInputs(5, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f.lis.Close()
	select {
	case err := <-f.ServeErr():
		if err == nil {
			t.Fatal("Serve returned nil after the listener died")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("accept failure never surfaced on ServeErr")
	}
	f.Close()

	// Same failure, but left undrained: Close must report it.
	f2, err := NewFleet(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f2.lis.Close()
	deadline := time.Now().Add(5 * time.Second)
	for len(f2.serveErr) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := f2.Close(); err == nil {
		t.Fatal("Close swallowed the accept-loop failure")
	}
}

// TestFleetRestartRacesInflightHandles hammers one agent with concurrent
// calls while crash-restarting it in a loop, pinning the atomic pointer-swap
// semantics: an in-flight request completes on the agent it loaded (no call
// errors, no torn state — the race detector holds this), and the first
// request after a restart sees the fresh instance (empty queues where the
// old one held backlog). Runs under -race in tier1.
func TestFleetRestartRacesInflightHandles(t *testing.T) {
	in, err := NewScaleInputs(3, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const target = 2
	conns := f.Conns()

	// Seed backlog on the victim so the post-restart emptiness is observable.
	c := in.Cluster
	route := make([]int, c.J())
	route[0] = 5
	alloc := transport.Allocate{
		Slot:    0,
		Route:   route,
		Process: make([]float64, c.J()),
		Busy:    make([]float64, c.K(target)),
	}
	var ack transport.AllocateAck
	if err := conns[target].Call(transport.KindAllocate, alloc, &ack); err != nil {
		t.Fatal(err)
	}
	var before float64
	for _, l := range f.Agent(target).QueueLens() {
		before += l
	}
	if before == 0 {
		t.Fatal("seeding allocation left the victim's queues empty")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				var pong transport.Ping
				if err := conns[target].Call(transport.KindPing, transport.Ping{Nonce: uint64(w*1000 + n)}, &pong); err != nil {
					t.Errorf("worker %d call %d: %v", w, n, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 50; r++ {
		if err := f.Restart(target); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	var after float64
	for _, l := range f.Agent(target).QueueLens() {
		after += l
	}
	if after != 0 {
		t.Errorf("post-restart agent holds backlog %v; a fresh instance should be empty", after)
	}
}
