package core

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"grefar/internal/model"
	"grefar/internal/queue"
)

// stateTestWorld builds a deterministic sequence of slot states and backlogs
// for driving Decide outside the simulator.
func stateTestWorld(t *testing.T, c *model.Cluster, slots int) ([]*model.State, []queue.Lengths) {
	t.Helper()
	states := make([]*model.State, slots)
	lengths := make([]queue.Lengths, slots)
	for s := 0; s < slots; s++ {
		st := model.NewState(c)
		for i := 0; i < c.N(); i++ {
			st.Price[i] = 0.3 + 0.1*float64(i) + 0.05*math.Sin(float64(s+i))
			for k := range st.Avail[i] {
				st.Avail[i][k] = 40 + float64(((s+1)*(i+2)*(k+3))%20)
			}
		}
		if err := st.Validate(c); err != nil {
			t.Fatal(err)
		}
		q := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
		for j := range q.Central {
			q.Central[j] = float64((s*7 + j*3) % 40)
		}
		for i := range q.Local {
			q.Local[i] = make([]float64, c.J())
			for j := range q.Local[i] {
				q.Local[i][j] = float64((s*5 + i*11 + j) % 25)
			}
		}
		states[s] = st
		lengths[s] = q
	}
	return states, lengths
}

// TestSchedulerStateRoundTrip drives a warm-starting beta > 0 scheduler for a
// prefix of slots, exports its state into a fresh instance, and requires the
// continuation's decisions to be byte-identical to the uninterrupted run —
// under the default configuration, and across the deprecated solver-kind
// names, which are accepted and ignored: a state exported by a scheduler
// configured with SolverMonolithic (the kind that named the dense layout
// many checkpoints were written under) restores into the default, and back.
func TestSchedulerStateRoundTrip(t *testing.T) {
	c := model.NewReferenceCluster()
	const slots, split = 24, 12
	states, lengths := stateTestWorld(t, c, slots)
	for _, tc := range []struct {
		name     string
		from, to SolverKind
	}{
		{"auto", SolverAuto, SolverAuto},
		{"monolithic-into-auto", SolverMonolithic, SolverAuto},
		{"auto-into-monolithic", SolverAuto, SolverMonolithic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(kind SolverKind) *GreFar {
				g, err := New(c, Config{V: 7.5, Beta: 100, Solver: kind})
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			full := build(tc.from)
			var want []*model.Action
			for s := 0; s < slots; s++ {
				act, err := full.Decide(s, states[s], lengths[s])
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, act.Clone()) // act is rewritten by the next Decide
			}

			first := build(tc.from)
			for s := 0; s < split; s++ {
				if _, err := first.Decide(s, states[s], lengths[s]); err != nil {
					t.Fatal(err)
				}
			}
			exported := first.ExportState()
			if !exported.WarmValid {
				t.Fatal("warm-starting scheduler exported no valid warm iterate")
			}
			// Keep deciding on the original to prove the export is a snapshot,
			// not a live alias.
			if _, err := first.Decide(split, states[split], lengths[split]); err != nil {
				t.Fatal(err)
			}

			second := build(tc.to)
			if err := second.RestoreState(exported); err != nil {
				t.Fatal(err)
			}
			for s := split; s < slots; s++ {
				act, err := second.Decide(s, states[s], lengths[s])
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(act, want[s]) {
					t.Fatalf("slot %d: restored scheduler diverged from uninterrupted run", s)
				}
			}
			if !reflect.DeepEqual(second.ExportState().Warm, full.ExportState().Warm) {
				t.Error("final warm iterates differ")
			}
			if second.warmHits != full.warmHits || second.warmRepairs != full.warmRepairs || second.warmFallbacks != full.warmFallbacks {
				t.Fatalf("warm counters diverged: restored %d/%d/%d, uninterrupted %d/%d/%d",
					second.warmHits, second.warmRepairs, second.warmFallbacks,
					full.warmHits, full.warmRepairs, full.warmFallbacks)
			}
		})
	}
}

// TestSchedulerStateLinearPath checks that a scheduler whose slot problem is
// linear (beta = 0, or V = 0) exports an empty (but restorable) state, after
// deciding as well as before: a snapshot of such a session carries no warm
// vector.
func TestSchedulerStateLinearPath(t *testing.T) {
	c := model.NewReferenceCluster()
	states, lengths := stateTestWorld(t, c, 3)
	for _, cfg := range []Config{{V: 7.5}, {V: 0, Beta: 100}} {
		g, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := range states {
			if st := g.ExportState(); st.Warm != nil || st.WarmValid {
				t.Fatalf("%+v slot %d: linear-path scheduler exported warm state", cfg, s)
			}
			if _, err := g.Decide(s, states[s], lengths[s]); err != nil {
				t.Fatal(err)
			}
		}
		st := g.ExportState()
		g2, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := g2.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if err := g2.RestoreState(nil); err != nil {
			t.Fatal(err)
		}
		// What a linear-slot compact scheduler exported before it stopped
		// allocating the buffer: a zero iterate marked not valid.
		old := &SchedulerState{Warm: make([]float64, newSlotLayout(c).total)}
		if err := g2.RestoreState(old); err != nil {
			t.Errorf("%+v: unused zero iterate rejected: %v", cfg, err)
		}
	}
}

// TestSchedulerStateRejectsMismatch checks the typed rejections: wrong warm
// length, warm state into a configuration without a convex path, non-finite
// iterates, and a valid flag without an iterate.
func TestSchedulerStateRejectsMismatch(t *testing.T) {
	c := model.NewReferenceCluster()
	quad, err := New(c, Config{V: 7.5, Beta: 100})
	if err != nil {
		t.Fatal(err)
	}
	lin, err := New(c, Config{V: 7.5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		g    *GreFar
		st   *SchedulerState
	}{
		{"wrong-length", quad, &SchedulerState{Warm: make([]float64, 3), WarmValid: true}},
		{"no-convex-path", lin, &SchedulerState{Warm: make([]float64, 3), WarmValid: true}},
		{"non-finite", quad, &SchedulerState{Warm: append(make([]float64, len(quad.ws.warm)-1), math.NaN()), WarmValid: true}},
		{"valid-without-iterate", quad, &SchedulerState{WarmValid: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.g.RestoreState(tc.st); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("got %v, want ErrBadConfig", err)
			}
		})
	}
}

// TestRestoreRejectsIneligibleWarmMass: a warm iterate with a value on a pair
// whose job type may not run at that site is one no scheduler can export.
// Restoring it used to succeed — the first Decide clamped the value away and
// booked a "repaired" warm start — and would, now that the repair walks
// eligible pairs only, ride along unseen. It is rejected before anything is
// copied: the scheduler's own state is unchanged, and the corrected state
// then restores and the decision stream continues bit-identically.
func TestRestoreRejectsIneligibleWarmMass(t *testing.T) {
	c := oddEligibilityCluster(t)
	const slots, split = 20, 10
	states, lengths := stateTestWorld(t, c, slots)
	l := newSlotLayout(c)
	ineligible := l.hIndex(1, 0) // site 1 runs no job type at all
	build := func() *GreFar {
		g, err := New(c, Config{V: 7.5, Beta: 100})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, planted := range []float64{3, -2} {
		full := build()
		var want []*model.Action
		for s := 0; s < slots; s++ {
			act, err := full.Decide(s, states[s], lengths[s])
			if err != nil {
				t.Fatal(err)
			}
			if s >= split {
				want = append(want, act.Clone()) // act is rewritten by the next Decide
			}
			if s == split-1 {
				if v := full.ExportState().Warm[ineligible]; v != 0 {
					t.Fatalf("scheduler exported %v on an ineligible pair", v)
				}
			}
		}

		first := build()
		for s := 0; s < split; s++ {
			if _, err := first.Decide(s, states[s], lengths[s]); err != nil {
				t.Fatal(err)
			}
		}
		good := first.ExportState()
		bad := *good
		bad.Warm = append([]float64(nil), good.Warm...)
		bad.Warm[ineligible] = planted
		bad.WarmHits += 100

		// Into a scheduler with a trajectory of its own, so that "nothing
		// was copied" is visible.
		second := build()
		for s := 0; s < 3; s++ {
			if _, err := second.Decide(s, states[s], lengths[s]); err != nil {
				t.Fatal(err)
			}
		}
		before := second.ExportState()
		if err := second.RestoreState(&bad); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("planted %v: got %v, want ErrBadConfig", planted, err)
		}
		if !reflect.DeepEqual(second.ExportState(), before) {
			t.Fatalf("planted %v: rejected restore changed the scheduler's state", planted)
		}
		if err := second.RestoreState(good); err != nil {
			t.Fatal(err)
		}
		for s := split; s < slots; s++ {
			act, err := second.Decide(s, states[s], lengths[s])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(act, want[s-split]) {
				t.Fatalf("slot %d after the corrected restore diverged from the uninterrupted run", s)
			}
		}
		if !reflect.DeepEqual(second.ExportState(), full.ExportState()) {
			t.Error("final scheduler states differ")
		}
	}
}
