package invariant_test

import (
	"reflect"
	"testing"

	"grefar/internal/core"
	"grefar/internal/experiments"
	"grefar/internal/invariant"
	"grefar/internal/model"
	"grefar/internal/sim"
	"grefar/internal/telemetry"
)

// kindBlind forwards events without the options block a non-default
// scheduler attaches to its first solve event. The block echoes the
// configuration, and the two configurations compared here differ by design:
// naming SolverMonolithic is a departure from the defaults and is reported,
// SolverAuto never is. Everything the solvers computed must match to the byte.
type kindBlind struct{ inner telemetry.SlotObserver }

func (k kindBlind) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Solve != nil && ev.Solve.Options != nil {
		solve := *ev.Solve
		solve.Options = nil
		ev.Solve = &solve
	}
	k.inner.ObserveSlot(ev)
}

// actionLog keeps the action of every applied slot.
type actionLog struct{ actions []*model.Action }

func (a *actionLog) WantsSlotDetail() bool { return true }

func (a *actionLog) ObserveSlot(ev telemetry.SlotEvent) {
	if ev.Origin == telemetry.OriginSim && ev.Detail != nil {
		a.actions = append(a.actions, ev.Detail.Action)
	}
}

// TestAutoSolverBitIdentical holds the default solver to the dense reference:
// SolverAuto, which runs on the compact active-pair representation wherever
// it can, and SolverMonolithic must produce byte-identical actions and JSONL
// event streams — over the golden-trace run under the linear and the
// (warm-started) convex configuration, and over a drifting 200x100 instance
// with a tenth of its pairs backlogged.
func TestAutoSolverBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{
		{"beta=0", core.Config{V: 7.5}},
		{"beta=100", core.Config{V: 7.5, Beta: 100}},
	} {
		t.Run("golden/"+tc.name, func(t *testing.T) {
			run := func(kind core.SolverKind) ([]byte, []*model.Action) {
				t.Helper()
				in, err := sim.NewReferenceInputs(goldenSeed, goldenSlots)
				if err != nil {
					t.Fatal(err)
				}
				rec, acts := &invariant.TraceRecorder{}, &actionLog{}
				cfg := tc.cfg
				cfg.Solver, cfg.Observer = kind, kindBlind{rec}
				g, err := core.New(in.Cluster, cfg)
				if err != nil {
					t.Fatal(err)
				}
				opt := sim.Options{Slots: goldenSlots, Observer: telemetry.Multi(rec, acts), ValidateActions: true, Check: true}
				if _, err := sim.Run(in, g, opt); err != nil {
					t.Fatal(err)
				}
				out, err := rec.MarshalJSONL()
				if err != nil {
					t.Fatal(err)
				}
				return out, acts.actions
			}
			autoTrace, autoActs := run(core.SolverAuto)
			denseTrace, denseActs := run(core.SolverMonolithic)
			if len(autoActs) != goldenSlots {
				t.Fatalf("captured %d actions, want %d", len(autoActs), goldenSlots)
			}
			if !reflect.DeepEqual(autoActs, denseActs) {
				t.Error("actions differ between SolverAuto and SolverMonolithic")
			}
			if diff := invariant.DiffJSONL(autoTrace, denseTrace); diff != "" {
				t.Errorf("event streams differ between SolverAuto and SolverMonolithic:\n%s", diff)
			}
		})
	}

	t.Run("N=200/J=100", func(t *testing.T) {
		const slots = 12
		run := func(kind core.SolverKind) ([]byte, []*model.Action) {
			t.Helper()
			in, err := experiments.NewSolverScaleInstance(goldenSeed, 200, 100, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			rec := &invariant.TraceRecorder{}
			g, err := core.New(in.Cluster, core.Config{
				V: 7.5, Beta: 100, Solver: kind, Observer: kindBlind{rec},
			})
			if err != nil {
				t.Fatal(err)
			}
			var acts []*model.Action
			for s := 0; s < slots; s++ {
				act, err := g.Decide(s, in.State, in.Lengths)
				if err != nil {
					t.Fatal(err)
				}
				// Clone: the scheduler rewrites act on its next Decide, so
				// keeping act itself would compare the last action with itself.
				acts = append(acts, act.Clone())
				in.Mutate()
			}
			out, err := rec.MarshalJSONL()
			if err != nil {
				t.Fatal(err)
			}
			return out, acts
		}
		autoTrace, autoActs := run(core.SolverAuto)
		denseTrace, denseActs := run(core.SolverMonolithic)
		if !reflect.DeepEqual(autoActs, denseActs) {
			t.Error("actions differ between SolverAuto and SolverMonolithic")
		}
		if diff := invariant.DiffJSONL(autoTrace, denseTrace); diff != "" {
			t.Errorf("event streams differ between SolverAuto and SolverMonolithic:\n%s", diff)
		}
	})
}
