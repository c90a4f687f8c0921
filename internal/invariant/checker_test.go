package invariant_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"grefar/internal/core"
	"grefar/internal/invariant"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
)

// TestCheckerCleanOnReferenceRuns drives the full reference pipeline with
// Options.Check on: every slot of every seed configuration must satisfy the
// queue dynamics, feasibility, and conservation invariants.
func TestCheckerCleanOnReferenceRuns(t *testing.T) {
	const slots = 24 * 10
	cases := []struct {
		name    string
		v, beta float64
	}{
		{"v0.1-beta0", 0.1, 0},
		{"v7.5-beta0", 7.5, 0},
		{"v7.5-beta100", 7.5, 100},
		{"v20-beta0", 20, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, err := sim.NewReferenceInputs(2012, slots)
			if err != nil {
				t.Fatal(err)
			}
			g, err := core.New(in.Cluster, core.Config{V: tc.v, Beta: tc.beta})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(in, g, sim.Options{Slots: slots, ValidateActions: true, Check: true})
			if err != nil {
				t.Fatalf("checked run failed: %v", err)
			}
			if res.TotalProcessed <= 0 {
				t.Error("nothing processed")
			}
		})
	}
}

// decideLog keeps each decision's evidence: the state, the backlogs it saw
// and the action it chose.
type decideLog struct{ slots []*telemetry.SlotDetail }

func (d *decideLog) WantsSlotDetail() bool { return true }

func (d *decideLog) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Origin == telemetry.OriginDecide && ev.Detail != nil {
		d.slots = append(d.slots, ev.Detail)
	}
}

// TestCheckerCleanOnAuxCluster drives the reference pipeline on the
// reference cluster given a memory-like auxiliary resource (footnote 3) with
// Options.Check on, at beta = 0 and beta = 100: every slot must satisfy the
// checker's invariants, auxiliary rows included. At beta = 0 every slot's
// processing objective must also equal the simplex LP's optimum within
// CrossCheckSolvers' default tolerance, and the memory rows must bind on
// some slots, or the run would not exercise them.
func TestCheckerCleanOnAuxCluster(t *testing.T) {
	const slots = 24 * 5
	for _, beta := range []float64{0, 100} {
		t.Run(fmt.Sprintf("beta=%g", beta), func(t *testing.T) {
			in, err := sim.NewReferenceInputs(2012, slots)
			if err != nil {
				t.Fatal(err)
			}
			c := in.Cluster
			for i := range c.DataCenters {
				c.DataCenters[i].AuxCapacity = []float64{40}
			}
			for j := range c.JobTypes {
				c.JobTypes[j].AuxDemand = []float64{1 + float64(j%2)*2}
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			log := &decideLog{}
			cfg := core.Config{V: 7.5, Beta: beta, Observer: log}
			g, err := core.New(c, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(in, g, sim.Options{Slots: slots, ValidateActions: true, Check: true})
			if err != nil {
				t.Fatalf("checked run failed: %v", err)
			}
			if res.TotalProcessed <= 0 {
				t.Error("nothing processed")
			}
			if len(log.slots) != slots {
				t.Fatalf("observed %d decisions, want %d", len(log.slots), slots)
			}
			bound := 0
			for s, d := range log.slots {
				for i := 0; i < c.N(); i++ {
					if d.Action.AuxUsageAt(c, i, 0) > c.DataCenters[i].AuxCapacity[0]-1e-6 {
						bound++
					}
				}
				if beta != 0 {
					continue
				}
				cH, cB, _ := core.SlotCoefficients(c, cfg, d.State, d.Pre)
				got := 0.0
				for i := 0; i < c.N(); i++ {
					for j, h := range d.Action.Process[i] {
						got += cH[i][j] * h
					}
					for k, b := range d.Action.Busy[i] {
						got += cB[i][k] * b
					}
				}
				_, _, want, err := core.SolveSlotLP(c, cfg, d.State, d.Pre)
				if err != nil {
					t.Fatal(err)
				}
				if rel := math.Abs(got-want) / math.Max(1, math.Max(math.Abs(got), math.Abs(want))); rel > 1e-6 {
					t.Errorf("slot %d: objective %v, simplex LP %v (relative diff %.3g)", s, got, want, rel)
				}
			}
			if bound == 0 {
				t.Error("no memory row ever bound")
			}
			t.Logf("memory rows bound on %d site-slots of %d", bound, slots*c.N())
		})
	}
}

// TestCheckerCleanForBaselines verifies the invariants hold for the
// non-GreFar policies too: the checker constrains the simulator, not one
// scheduler.
func TestCheckerCleanForBaselines(t *testing.T) {
	const slots = 24 * 5
	in, err := sim.NewReferenceInputs(7, slots)
	if err != nil {
		t.Fatal(err)
	}
	al, err := sched.NewAlways(in.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := sched.NewLocalGreedy(in.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Scheduler{al, lg} {
		if _, err := sim.Run(in, s, sim.Options{Slots: slots, Check: true}); err != nil {
			t.Errorf("%s: checked run failed: %v", s.Name(), err)
		}
	}
}

// TestCheckerObjectiveRecompute attaches a checker with an ObjectiveSpec to
// the scheduler side and verifies the emitted drift/penalty decomposition
// against the independent recomputation over real decisions.
func TestCheckerObjectiveRecompute(t *testing.T) {
	const slots = 24 * 5
	for _, beta := range []float64{0, 100} {
		in, err := sim.NewReferenceInputs(2012, slots)
		if err != nil {
			t.Fatal(err)
		}
		ck := invariant.NewChecker(in.Cluster, invariant.CheckerOptions{
			Objective: &invariant.ObjectiveSpec{V: 7.5, Beta: beta},
		})
		g, err := core.New(in.Cluster, core.Config{V: 7.5, Beta: beta, Observer: ck})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(in, g, sim.Options{Slots: slots}); err != nil {
			t.Fatal(err)
		}
		if err := ck.Err(); err != nil {
			t.Errorf("beta=%g: decide-side check failed: %v", beta, err)
		}
	}
}

// smallCluster is a two-site, two-type system for hand-built events.
func smallCluster(t *testing.T) *model.Cluster {
	t.Helper()
	c := &model.Cluster{
		DataCenters: []model.DataCenter{
			{Name: "a", Servers: []model.ServerType{{Name: "s", Speed: 1, Power: 1}}},
			{Name: "b", Servers: []model.ServerType{{Name: "s", Speed: 2, Power: 1.5}}},
		},
		JobTypes: []model.JobType{
			{Name: "j0", Demand: 1, Eligible: []int{0, 1}, Account: 0},
			{Name: "j1", Demand: 2, Eligible: []int{1}, Account: 0},
		},
		Accounts: []model.Account{{Name: "acct", Weight: 1}},
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

// validAppliedEvent builds a self-consistent applied-slot event on the small
// cluster, which tests then corrupt one field at a time.
func validAppliedEvent(t *testing.T, c *model.Cluster) telemetry.SlotEvent {
	t.Helper()
	st := model.NewState(c)
	st.Avail = [][]float64{{10}, {10}}
	st.Price = []float64{0.5, 0.4}
	act := model.NewAction(c)
	act.Route[0][0] = 2
	act.Process[1][0] = 1
	act.Busy[1][0] = 0.5
	pre := queue.Lengths{Central: []float64{5, 0}, Local: [][]float64{{1, 0}, {3, 0}}}
	post := queue.Lengths{Central: []float64{3 + 4, 0}, Local: [][]float64{{3, 0}, {2, 0}}}
	return telemetry.SlotEvent{
		Slot:       0,
		Origin:     telemetry.OriginSim,
		DataCenter: -1,
		Processed:  1,
		TotalBacklog: func() float64 {
			return post.Sum()
		}(),
		Detail: &telemetry.SlotDetail{
			State:     st,
			Action:    act,
			Pre:       pre,
			Post:      post,
			Arrivals:  []int{4, 0},
			Routed:    [][]float64{{2, 0}, {0, 0}},
			Processed: [][]float64{{0, 0}, {1, 0}},
		},
	}
}

func TestCheckerAcceptsConsistentEvent(t *testing.T) {
	c := smallCluster(t)
	ck := invariant.NewChecker(c, invariant.CheckerOptions{})
	ck.ObserveSlot(validAppliedEvent(t, c))
	if err := ck.Err(); err != nil {
		t.Fatalf("consistent event rejected: %v", err)
	}
	if ck.Slots() != 1 {
		t.Errorf("checked %d slots, want 1", ck.Slots())
	}
}

// TestCheckerCatchesCorruption corrupts one aspect of a valid event per case
// and requires the checker to flag exactly the matching rule.
func TestCheckerCatchesCorruption(t *testing.T) {
	c := smallCluster(t)
	cases := []struct {
		name    string
		rule    string
		corrupt func(ev *telemetry.SlotEvent)
	}{
		{"negative-backlog", "queue-dynamics-local", func(ev *telemetry.SlotEvent) {
			ev.Detail.Post.Local[1][0] = -1
		}},
		{"broken-central-dynamics", "queue-dynamics-central", func(ev *telemetry.SlotEvent) {
			ev.Detail.Post.Central[0] += 1
		}},
		{"phantom-processing", "flow-processed", func(ev *telemetry.SlotEvent) {
			ev.Detail.Processed[1][0] = 5 // more than queued
		}},
		{"over-routing", "flow-routed", func(ev *telemetry.SlotEvent) {
			ev.Detail.Routed[0][0] = 3 // more than nominal
		}},
		{"busy-over-availability", "feasibility-availability", func(ev *telemetry.SlotEvent) {
			ev.Detail.Action.Busy[0][0] = 99
		}},
		{"ineligible-processing", "feasibility-eligibility", func(ev *telemetry.SlotEvent) {
			ev.Detail.Action.Process[0][1] = 1
			ev.Detail.Action.Busy[0][0] = 2
			ev.Detail.Pre.Local[0][1] = 2
			ev.Detail.Processed[0][1] = 1
			ev.Detail.Post.Local[0][1] = 1
			ev.Processed += 1
			ev.TotalBacklog += 1
		}},
		{"work-over-capacity", "feasibility-capacity", func(ev *telemetry.SlotEvent) {
			ev.Detail.Action.Busy[1][0] = 0.1 // 1 unit of work on 0.2 resource
		}},
		{"event-backlog-mismatch", "event-backlog", func(ev *telemetry.SlotEvent) {
			ev.TotalBacklog += 7
		}},
		{"missing-detail", "missing-detail", func(ev *telemetry.SlotEvent) {
			ev.Detail = nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck := invariant.NewChecker(c, invariant.CheckerOptions{})
			ev := validAppliedEvent(t, c)
			tc.corrupt(&ev)
			ck.ObserveSlot(ev)
			err := ck.Err()
			if err == nil {
				t.Fatal("corrupted event accepted")
			}
			if !errors.Is(err, invariant.ErrViolation) {
				t.Errorf("error %v does not wrap ErrViolation", err)
			}
			found := false
			for _, v := range ck.Violations() {
				if v.Rule == tc.rule {
					found = true
				}
			}
			if !found {
				t.Errorf("no violation of rule %q; got %v", tc.rule, ck.Violations())
			}
		})
	}
}

// TestCheckerContinuity requires consecutive slots to share a queue
// trajectory: slot t must start where slot t-1 ended.
func TestCheckerContinuity(t *testing.T) {
	c := smallCluster(t)
	ck := invariant.NewChecker(c, invariant.CheckerOptions{})
	ck.ObserveSlot(validAppliedEvent(t, c))
	// Second slot with a pre snapshot that does not match the first post.
	ev := validAppliedEvent(t, c)
	ev.Slot = 1
	ck.ObserveSlot(ev)
	err := ck.Err()
	if err == nil {
		t.Fatal("discontinuous trajectory accepted")
	}
	found := false
	for _, v := range ck.Violations() {
		if v.Rule == "continuity-central" || v.Rule == "continuity-local" {
			found = true
		}
	}
	if !found {
		t.Errorf("no continuity violation recorded; got %v", ck.Violations())
	}
}

// TestCheckerConservation feeds a trajectory that silently loses a job and
// expects the cumulative conservation check to notice.
func TestCheckerConservation(t *testing.T) {
	c := smallCluster(t)
	ck := invariant.NewChecker(c, invariant.CheckerOptions{})
	ev := validAppliedEvent(t, c)
	// Claim fewer arrivals than the post-slot backlog accounts for.
	ev.Detail.Arrivals = []int{2, 0}
	ck.ObserveSlot(ev)
	err := ck.Err()
	if err == nil {
		t.Fatal("job-losing trajectory accepted")
	}
	found := false
	for _, v := range ck.Violations() {
		if v.Rule == "conservation" || v.Rule == "queue-dynamics-central" {
			found = true
		}
	}
	if !found {
		t.Errorf("no conservation violation recorded; got %v", ck.Violations())
	}
}

// TestSimRunFailsOnBadScheduler wires a scheduler that fabricates infeasible
// busy counts through sim.Run with Check on; ValidateActions alone is kept
// off so the failure must come from the invariant checker.
func TestSimRunFailsOnBadScheduler(t *testing.T) {
	const slots = 10
	in, err := sim.NewReferenceInputs(3, slots)
	if err != nil {
		t.Fatal(err)
	}
	bad := overBusyScheduler{cluster: in.Cluster}
	_, err = sim.Run(in, bad, sim.Options{Slots: slots, Check: true})
	if err == nil {
		t.Fatal("sim.Run accepted an infeasible trajectory under Check")
	}
	if !errors.Is(err, invariant.ErrViolation) {
		t.Errorf("error %v does not wrap invariant.ErrViolation", err)
	}
}

// overBusyScheduler keeps more servers busy than are available.
type overBusyScheduler struct {
	cluster *model.Cluster
}

func (s overBusyScheduler) Name() string { return "over-busy" }

func (s overBusyScheduler) Decide(t int, st *model.State, q queue.Lengths) (*model.Action, error) {
	act := model.NewAction(s.cluster)
	for i := range act.Busy {
		for k := range act.Busy[i] {
			act.Busy[i][k] = st.Avail[i][k] * 2
		}
	}
	return act, nil
}

// TestCheckerViolationCap verifies the recording cap counts every violation
// while bounding memory.
func TestCheckerViolationCap(t *testing.T) {
	c := smallCluster(t)
	ck := invariant.NewChecker(c, invariant.CheckerOptions{MaxViolations: 3})
	for s := 0; s < 10; s++ {
		ev := validAppliedEvent(t, c)
		ev.Slot = s
		ev.Detail = nil // one missing-detail violation each
		ck.ObserveSlot(ev)
	}
	if got := len(ck.Violations()); got != 3 {
		t.Errorf("recorded %d violations, want cap 3", got)
	}
	if ck.Count() != 10 {
		t.Errorf("counted %d violations, want 10", ck.Count())
	}
}

// TestCheckerRandomizedTrajectories replays many random feasible actions
// through a real queue.Set and asserts the checker stays silent — the checker
// must not flag legal behavior, whatever the action mix.
func TestCheckerRandomizedTrajectories(t *testing.T) {
	c := smallCluster(t)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		ck := invariant.NewChecker(c, invariant.CheckerOptions{})
		qs := queue.NewSet(c)
		st := model.NewState(c)
		st.Avail = [][]float64{{8}, {8}}
		st.Price = []float64{0.5, 0.6}
		for slot := 0; slot < 30; slot++ {
			pre := qs.Lengths()
			act := model.NewAction(c)
			for j := 0; j < c.J(); j++ {
				for _, i := range c.JobTypes[j].Eligible {
					act.Route[i][j] = rng.Intn(4)
					// Cap processing at content so capacity stays feasible.
					h := float64(rng.Intn(4))
					if h > pre.Local[i][j] {
						h = pre.Local[i][j]
					}
					act.Process[i][j] += h
				}
			}
			// Provision exactly the work demanded.
			for i := 0; i < c.N(); i++ {
				act.Busy[i][0] = act.WorkAt(c, i) / c.DataCenters[i].Servers[0].Speed
			}
			flows, err := qs.Apply(slot, act)
			if err != nil {
				t.Fatal(err)
			}
			arr := []int{rng.Intn(5), rng.Intn(3)}
			if err := qs.Arrive(slot, arr); err != nil {
				t.Fatal(err)
			}
			post := qs.Lengths()
			var processed float64
			for i := range flows.Processed {
				for _, h := range flows.Processed[i] {
					processed += h
				}
			}
			ck.ObserveSlot(telemetry.SlotEvent{
				Slot:         slot,
				Origin:       telemetry.OriginSim,
				DataCenter:   -1,
				Processed:    processed,
				TotalBacklog: post.Sum(),
				Detail: &telemetry.SlotDetail{
					State:     st.Clone(),
					Action:    act,
					Pre:       pre,
					Post:      post,
					Arrivals:  arr,
					Routed:    flows.Routed,
					Processed: flows.Processed,
				},
			})
		}
		if err := ck.Err(); err != nil {
			t.Fatalf("trial %d: checker flagged a legal trajectory: %v", trial, err)
		}
	}
}
