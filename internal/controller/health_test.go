package controller

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"grefar/internal/core"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
	"grefar/internal/transport"
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
// counters exactly as gather/allocate outcomes do, and "probe" events run the
// loop's real slot opening against the agent (reachable or not) — its ping
// phase, then its restore phase — and settle it as a slot does once its
// gather is through, so the Dead -> Rejoining edge is exercised through the
// actual heartbeat + resync path rather than by poking setState.
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
			probeRound := func(slot int) {
				t.Helper()
				ct.scratch.Reset()
				if err := ct.open(context.Background(), slot); err != nil {
					t.Fatalf("slot %d: open: %v", slot, err)
				}
				ct.settleOpen()
			}
			for slot, st := range tc.steps {
				switch st.ev {
				case fail:
					ct.tracker.RecordFailure(0)
				case ok:
					ct.tracker.RecordSuccess(0)
				case probe:
					sw.down.Store(false)
					probeRound(slot)
				case probeFail:
					sw.down.Store(true)
					probeRound(slot)
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

// kindLog records the kinds of the calls an agent connection carries.
type kindLog struct {
	AgentConn
	kinds []string
}

func (k *kindLog) Call(kind string, reqBody, respBody any) error {
	k.kinds = append(k.kinds, kind)
	return k.AgentConn.Call(kind, reqBody, respBody)
}

// TestFailedRewindKeepsItsDeadAgentOutOfTheGather pins the gather set of a
// slot whose opening failed an agent: the health machine takes the opening's
// outcomes only after the gather, yet an agent the failed rewind makes Dead
// is not polled in that slot, as if the failure had been recorded first. Its
// next calls are the following slot's probe, the push of its shadow, and the
// rejoin.
func TestFailedRewindKeepsItsDeadAgentOutOfTheGather(t *testing.T) {
	in, conns, cleanup := buildSystem(t, 4, false)
	defer cleanup()
	build := func(conns []AgentConn) *Controller {
		g, err := core.New(in.Cluster, core.Config{V: 7.5})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := New(in.Cluster, g, conns, WithFailurePolicy(Degrade), WithHealthThresholds(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	run := func(ct *Controller, slot int) {
		t.Helper()
		if _, _, _, err := ct.RunSlot(slot, in.Workload.Arrivals(slot)); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	ct := build(conns)
	run(ct, 0)
	state, err := ct.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	log := &kindLog{AgentConn: &flakyRestoreConn{AgentConn: conns[0]}}
	restored := build(append([]AgentConn{log}, conns[1:]...))
	if err := restored.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	run(restored, 1)
	if h := restored.Health()[0]; h != Dead || !reflect.DeepEqual(log.kinds, []string{transport.KindRestore}) {
		t.Fatalf("after the lost rewind: agent 0 is %v with calls %v, want dead after [restore] alone", h, log.kinds)
	}
	run(restored, 2)
	want := []string{transport.KindRestore, transport.KindPing, transport.KindRestore, transport.KindState, transport.KindAllocate}
	if h := restored.Health()[0]; h != Healthy || !reflect.DeepEqual(log.kinds, want) {
		t.Fatalf("after the probe: agent 0 is %v with calls %v, want healthy after %v", h, log.kinds, want)
	}
}

// TestSuspectHealsThroughRealGather covers probe-success during Suspect on the
// operational path: a Suspect agent is still in the gather set (it is polled,
// not heartbeated), so the first slot where its state report gets through
// restores Healthy — no probe round involved.
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

// TestShadowSeedApplyRestore exercises the shadow bookkeeping that degraded
// mode rests on, on the loop's queue set whose local rows are the shadows:
// seeding a row from a report, replaying an allocation through the set's
// Apply, and exact equality checks.
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
		t.Fatalf("shadow lens %v != seed %v", ct.qs.View().Local[0], lens)
	}

	arrivals := make([]int, j)
	arrivals[0] = 5 // the central jobs the allocation routes to site 0
	if err := ct.qs.Arrive(0, arrivals); err != nil {
		t.Fatal(err)
	}
	act := model.NewAction(in.Cluster)
	act.Process[0][0], act.Route[0][0] = 2, 5 // pop 2 of 3, then push 5
	act.Process[0][1] = 100                   // over-processing caps at content
	fs, err := ct.qs.Apply(1, act)
	if err != nil {
		t.Fatal(err)
	}
	if popped := fs.Matrix(j, func(f queue.Flow) float64 { return f.Processed })[0]; popped[0] != 2 || popped[1] != lens[1] {
		t.Errorf("popped = %v, want [2 %v ...]", popped, lens[1])
	}
	got := ct.qs.View().Local[0]
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

// skewAck rewrites its agent's allocate ack for one slot before the loop
// settles it.
type skewAck struct {
	AgentConn
	slot int
	skew func(*transport.AllocateAck)
}

func (s *skewAck) Call(kind string, reqBody, respBody any) error {
	err := s.AgentConn.Call(kind, reqBody, respBody)
	if ack, ok := respBody.(*transport.AllocateAck); ok && err == nil && ack.Slot == s.slot {
		s.skew(ack)
	}
	return err
}

// TestAckMismatchReseedsTheShadow pins ack settlement's two checked figures:
// an ack whose Energy is one ulp off its row's central bill, or whose
// Processed is one ulp off the shadow replay, is a forked agent. The slot
// notes the divergence and distrusts the shadow, and the next report
// re-seeds it — as one cohort per type arriving at that slot, so the site's
// delay falls below an untouched loop's while the backlogs still agree —
// under either failure policy.
func TestAckMismatchReseedsTheShadow(t *testing.T) {
	const agent, bad, slots = 1, 4, 7
	up := math.Inf(1)
	for _, tc := range []struct {
		name string
		skew func(*transport.AllocateAck)
	}{
		{"energy", func(a *transport.AllocateAck) { a.Energy = math.Nextafter(a.Energy, up) }},
		{"processed", func(a *transport.AllocateAck) { a.Processed[0] = math.Nextafter(a.Processed[0], up) }},
	} {
		for _, policy := range []FailurePolicy{Strict, Degrade} {
			t.Run(tc.name+"/"+policy.String(), func(t *testing.T) {
				build := func(skew func(*transport.AllocateAck), reg *telemetry.Registry) *Controller {
					in, conns, cleanup := buildSystem(t, slots, false)
					t.Cleanup(cleanup)
					if skew != nil {
						conns[agent] = &skewAck{AgentConn: conns[agent], slot: bad, skew: skew}
					}
					g, err := core.New(in.Cluster, core.Config{V: 7.5, Beta: 100})
					if err != nil {
						t.Fatal(err)
					}
					ct, err := New(in.Cluster, g, conns, WithFailurePolicy(policy), WithHealthMetrics(reg))
					if err != nil {
						t.Fatal(err)
					}
					return ct
				}
				reg := telemetry.NewRegistry()
				ct, ref := build(tc.skew, reg), build(nil, telemetry.NewRegistry())
				in, err := sim.NewReferenceInputs(2012, slots)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < slots; s++ {
					for _, loop := range []*Controller{ct, ref} {
						if _, _, _, err := loop.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
							t.Fatalf("slot %d: %v", s, err)
						}
					}
					if synced := ct.tracker.recs[agent].synced; synced == (s == bad) {
						t.Fatalf("slot %d: shadow synced = %v", s, synced)
					}
					if s != bad+1 {
						continue
					}
					// A seeded cohort arrives at the seeding slot, so the jobs
					// this slot popped from it waited nothing by the shadow's
					// clock.
					if got, want := ct.Result().AvgLocalDelay[agent], ref.Result().AvgLocalDelay[agent]; got >= want {
						t.Fatalf("slot %d: site delay %v, untouched loop's %v: the report after the mismatch did not re-seed the shadow", s, got, want)
					}
					if g, w := ct.Lengths(), ref.Lengths(); !reflect.DeepEqual(g, w) {
						t.Fatalf("slot %d: re-seeded backlogs %v, untouched loop's %v", s, g, w)
					}
				}
				var b strings.Builder
				if err := reg.WritePrometheus(&b); err != nil {
					t.Fatal(err)
				}
				if line := `grefar_controller_agent_divergences_total{dc="1"} 1`; !strings.Contains(b.String(), line) {
					t.Errorf("/metrics lacks %s:\n%s", line, b.String())
				}
			})
		}
	}
}

// strayReport adds jobs of type 0 to its agent's state reports from slot at
// on.
type strayReport struct {
	AgentConn
	at int
}

func (s *strayReport) Call(kind string, reqBody, respBody any) error {
	err := s.AgentConn.Call(kind, reqBody, respBody)
	if rep, ok := respBody.(*transport.StateReport); ok && err == nil && rep.Slot >= s.at {
		rep.QueueLens[0] += 3
	}
	return err
}

// TestReportAtIneligiblePairIsMalformed: an agent that reports jobs of a type
// not eligible at its site sent a malformed report. Under Strict the slot
// fails before anything moves; under Degrade the agent is masked, and its
// shadow never holds the jobs.
func TestReportAtIneligiblePairIsMalformed(t *testing.T) {
	const stray, at = 1, 2
	for _, policy := range []FailurePolicy{Strict, Degrade} {
		t.Run(policy.String(), func(t *testing.T) {
			in, conns, cleanup := buildSystem(t, 6, false)
			t.Cleanup(cleanup)
			in.Cluster.JobTypes[0].Eligible = []int{0, 2}
			conns[stray] = &strayReport{AgentConn: conns[stray], at: at}
			g, err := core.New(in.Cluster, core.Config{V: 7.5})
			if err != nil {
				t.Fatal(err)
			}
			ct, err := New(in.Cluster, g, conns, WithFailurePolicy(policy))
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < at; s++ {
				if _, _, _, err := ct.RunSlot(s, in.Workload.Arrivals(s)); err != nil {
					t.Fatalf("slot %d: %v", s, err)
				}
			}
			before, err := ct.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, err = ct.RunSlot(at, in.Workload.Arrivals(at))
			if policy == Strict {
				if !errors.Is(err, transport.ErrMalformedReport) {
					t.Fatalf("err = %v, want a malformed report", err)
				}
				after, err := ct.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(after, before) {
					t.Fatal("the refused slot changed the loop's state")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if h := ct.Health()[stray]; h == Healthy {
				t.Fatalf("agent %d stays %v", stray, h)
			}
			if q := ct.qs.View().Local[stray][0]; q != 0 {
				t.Fatalf("shadow holds %v jobs at an ineligible pair", q)
			}
		})
	}
}
