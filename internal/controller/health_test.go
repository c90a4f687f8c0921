package controller

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"grefar/internal/core"
	"grefar/internal/telemetry"
)

// switchConn is an agent connection with a breaker: while tripped, every call
// fails, indistinguishable from a dead or partitioned agent.
type switchConn struct {
	inner AgentConn
	down  atomic.Bool
}

func (s *switchConn) Call(kind string, reqBody, respBody any) error {
	if s.down.Load() {
		return errors.New("switchConn: agent unreachable")
	}
	return s.inner.Call(kind, reqBody, respBody)
}

func TestParseFailurePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FailurePolicy
		ok   bool
	}{
		{"strict", Strict, true},
		{"degrade", Degrade, true},
		{"", Strict, false},
		{"lenient", Strict, false},
	} {
		got, err := ParseFailurePolicy(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseFailurePolicy(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseFailurePolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
		if err == nil && got.String() != tc.in {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), tc.in)
		}
	}
}

func TestHealthConfigDefaults(t *testing.T) {
	hc := HealthConfig{}.withDefaults()
	if hc.SuspectAfter != 1 || hc.DeadAfter != 3 {
		t.Errorf("defaults = %+v, want SuspectAfter 1, DeadAfter 3", hc)
	}
	// DeadAfter is clamped to at least SuspectAfter.
	hc = HealthConfig{SuspectAfter: 5, DeadAfter: 2}.withDefaults()
	if hc.DeadAfter != 5 {
		t.Errorf("DeadAfter = %d, want clamped to 5", hc.DeadAfter)
	}
}

func TestAgentHealthString(t *testing.T) {
	for h, want := range map[AgentHealth]string{
		Healthy: "healthy", Suspect: "suspect", Dead: "dead", Rejoining: "rejoining",
	} {
		if h.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(h), h.String(), want)
		}
	}
}

// TestHealthStateMachineTransitions drives the failure/success counters
// directly and checks the threshold-governed transitions, including the gauge
// published per agent.
func TestHealthStateMachineTransitions(t *testing.T) {
	in, conns, cleanup := buildSystem(t, 10, false)
	defer cleanup()
	g, err := core.New(in.Cluster, core.Config{V: 7.5})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	ct, err := New(in.Cluster, g, conns,
		WithFailurePolicy(Degrade),
		WithHealthThresholds(2, 4),
		WithHealthMetrics(reg),
	)
	if err != nil {
		t.Fatal(err)
	}

	want := func(i int, s AgentHealth) {
		t.Helper()
		if got := ct.Health()[i]; got != s {
			t.Fatalf("agent %d health = %v, want %v", i, got, s)
		}
	}

	want(0, Healthy)
	ct.tracker.RecordFailure(0)
	want(0, Healthy) // one failure is below SuspectAfter=2
	ct.tracker.RecordFailure(0)
	want(0, Suspect)
	ct.tracker.RecordFailure(0)
	want(0, Suspect)
	ct.tracker.RecordFailure(0)
	want(0, Dead) // fourth consecutive failure reaches DeadAfter=4
	ct.tracker.RecordSuccess(0)
	want(0, Healthy)

	// A success mid-streak resets the counter entirely.
	ct.tracker.RecordFailure(1)
	ct.tracker.RecordSuccess(1)
	ct.tracker.RecordFailure(1)
	want(1, Healthy)

	// Rejoining is left by recordSuccess only.
	ct.tracker.setState(2, Rejoining)
	ct.tracker.RecordSuccess(2)
	want(2, Healthy)

	if v := ct.tracker.metrics.failures.With(dcLabel(0)).Value(); v != 4 {
		t.Errorf("failure counter = %v, want 4", v)
	}
	if v := ct.tracker.metrics.state.With(dcLabel(0)).Value(); v != float64(Healthy) {
		t.Errorf("state gauge = %v, want %v", v, float64(Healthy))
	}
}

// TestHealthTransitionTable walks the health state machine through every
// transition as event sequences: failed and resolved interactions drive the
// counters exactly as gather/allocate outcomes do, and "probe" events run a
// real probeDead round against the agent (reachable or not), so the
// Dead -> Rejoining edge is exercised through the actual heartbeat + resync
// path rather than by poking setState.
func TestHealthTransitionTable(t *testing.T) {
	const (
		fail      = "fail"       // one failed interaction (gather or allocate error)
		ok        = "ok"         // one fully-resolved interaction
		probe     = "probe"      // slot-opening heartbeat round, agent answering
		probeFail = "probe-fail" // heartbeat round with the agent still dark
	)
	type step struct {
		ev   string
		want AgentHealth
	}
	cases := []struct {
		name         string
		suspectAfter int
		deadAfter    int
		steps        []step
	}{
		{
			// The full lifecycle the ISSUE names: every state visited in order.
			name: "full lifecycle at default thresholds", suspectAfter: 1, deadAfter: 3,
			steps: []step{
				{fail, Suspect}, {fail, Suspect}, {fail, Dead},
				{probe, Rejoining}, {ok, Healthy},
			},
		},
		{
			// Boundary: the transition fires on exactly the SuspectAfter-th
			// consecutive failure, not one earlier.
			name: "suspect exactly at threshold", suspectAfter: 3, deadAfter: 5,
			steps: []step{{fail, Healthy}, {fail, Healthy}, {fail, Suspect}},
		},
		{
			// Boundary: Dead on exactly the DeadAfter-th consecutive failure.
			name: "dead exactly at threshold", suspectAfter: 2, deadAfter: 4,
			steps: []step{{fail, Healthy}, {fail, Suspect}, {fail, Suspect}, {fail, Dead}},
		},
		{
			// A success while Suspect heals immediately and restarts the streak
			// from zero: the next failure is one-of-SuspectAfter again.
			name: "success during suspect restarts the streak", suspectAfter: 2, deadAfter: 4,
			steps: []step{
				{fail, Healthy}, {fail, Suspect}, {ok, Healthy},
				{fail, Healthy}, {fail, Suspect},
			},
		},
		{
			// Failed probes keep an agent Dead indefinitely; the first answered
			// probe re-syncs it to Rejoining and the next report completes it.
			name: "failed probes keep an agent dead", suspectAfter: 1, deadAfter: 2,
			steps: []step{
				{fail, Suspect}, {fail, Dead},
				{probeFail, Dead}, {probeFail, Dead},
				{probe, Rejoining}, {ok, Healthy},
			},
		},
		{
			// Rejoining is provisional: a rejoin does not reset the failure
			// streak, so a Rejoining agent whose very next interaction fails
			// relapses straight to Dead, never re-earning Suspect grace.
			name: "rejoining relapses straight to dead", suspectAfter: 1, deadAfter: 3,
			steps: []step{
				{fail, Suspect}, {fail, Suspect}, {fail, Dead},
				{probe, Rejoining}, {fail, Dead},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, conns, cleanup := buildSystem(t, 10, false)
			defer cleanup()
			sw := &switchConn{inner: conns[0]}
			conns[0] = sw
			g, err := core.New(in.Cluster, core.Config{V: 7.5})
			if err != nil {
				t.Fatal(err)
			}
			ct, err := New(in.Cluster, g, conns,
				WithFailurePolicy(Degrade),
				WithHealthThresholds(tc.suspectAfter, tc.deadAfter),
			)
			if err != nil {
				t.Fatal(err)
			}
			for slot, st := range tc.steps {
				switch st.ev {
				case fail:
					ct.tracker.RecordFailure(0)
				case ok:
					ct.tracker.RecordSuccess(0)
				case probe:
					sw.down.Store(false)
					ct.tracker.ProbeDead(context.Background(), slot)
				case probeFail:
					sw.down.Store(true)
					ct.tracker.ProbeDead(context.Background(), slot)
					sw.down.Store(false)
				default:
					t.Fatalf("unknown event %q", st.ev)
				}
				if got := ct.Health()[0]; got != st.want {
					t.Fatalf("step %d (%s): health = %v, want %v", slot, st.ev, got, st.want)
				}
			}
		})
	}
}

// TestSuspectHealsThroughRealGather covers probe-success during Suspect on the
// operational path: a Suspect agent is still in the gather set (it is polled,
// not heartbeated), so the first slot where its state report gets through
// restores Healthy — no probeDead round involved.
func TestSuspectHealsThroughRealGather(t *testing.T) {
	in, conns, cleanup := buildSystem(t, 10, false)
	defer cleanup()
	sw := &switchConn{inner: conns[1]}
	conns[1] = sw
	g, err := core.New(in.Cluster, core.Config{V: 7.5})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := New(in.Cluster, g, conns,
		WithFailurePolicy(Degrade),
		WithHealthThresholds(1, 3),
	)
	if err != nil {
		t.Fatal(err)
	}
	run := func(t0 int) {
		t.Helper()
		if _, _, _, err := ct.RunSlot(t0, in.Workload.Arrivals(t0)); err != nil {
			t.Fatalf("slot %d: %v", t0, err)
		}
	}
	run(0)
	if got := ct.Health()[1]; got != Healthy {
		t.Fatalf("after clean slot: health = %v, want %v", got, Healthy)
	}
	sw.down.Store(true)
	run(1)
	if got := ct.Health()[1]; got != Suspect {
		t.Fatalf("after failed gather: health = %v, want %v", got, Suspect)
	}
	sw.down.Store(false)
	run(2)
	if got := ct.Health()[1]; got != Healthy {
		t.Fatalf("after answered gather: health = %v, want %v", got, Healthy)
	}
}

// TestShadowSeedApplyRestore exercises the shadow-ledger bookkeeping that
// degraded mode rests on: seeding from a report, replaying an allocation, and
// exact equality checks.
func TestShadowSeedApplyRestore(t *testing.T) {
	in, conns, cleanup := buildSystem(t, 10, false)
	defer cleanup()
	g, _ := core.New(in.Cluster, core.Config{V: 7.5})
	ct, err := New(in.Cluster, g, conns, WithFailurePolicy(Degrade))
	if err != nil {
		t.Fatal(err)
	}
	j := in.Cluster.J()
	lens := make([]float64, j)
	for jj := range lens {
		lens[jj] = float64(3 * (jj + 1))
	}
	if ct.tracker.recs[0].synced {
		t.Fatal("shadow synced before any report")
	}
	ct.tracker.seedShadow(0, 0, lens)
	if !ct.tracker.recs[0].synced {
		t.Fatal("seedShadow did not mark the shadow synced")
	}
	if !ct.tracker.lensEqualShadow(0, lens) {
		t.Fatalf("shadow lens %v != seed %v", ct.tracker.ShadowLens(0, make([]float64, j)), lens)
	}

	process := make([]float64, j)
	routed := make([]int, j)
	process[0], routed[0] = 2, 5 // pop 2 of 3, then push 5
	process[1] = 100             // over-processing caps at content
	popped, delays := make([]float64, j), make([]float64, j)
	ct.tracker.ApplyShadow(0, 1, process, routed, popped, delays)
	if popped[0] != 2 || popped[1] != lens[1] {
		t.Errorf("popped = %v, want [2 %v ...]", popped, lens[1])
	}
	got := ct.tracker.ShadowLens(0, make([]float64, j))
	if got[0] != lens[0]-2+5 || got[1] != 0 {
		t.Errorf("post-apply lens = %v", got)
	}
	if ct.tracker.lensEqualShadow(0, lens) {
		t.Error("stale lens still compare equal after apply")
	}
	if ct.tracker.lensEqualShadow(0, lens[:1]) {
		t.Error("short lens compare equal")
	}
}
