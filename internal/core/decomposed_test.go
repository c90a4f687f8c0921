package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"grefar/internal/model"
)

// The decomposed solver is gone; SolverDecomposed survives only as a
// deprecated name for SolverSparse. These tests pin what is left of it: the
// name decides exactly as the compact solver does, is validated like it, and
// states its schedulers wrote still restore.

// decomposedAliasMatchesDense drives a SolverDecomposed scheduler and a
// monolithic one over the same slots and requires bit-identical actions.
func decomposedAliasMatchesDense(t *testing.T, cfg Config) {
	t.Helper()
	c := refCluster(t)
	states, lengths := stateTestWorld(t, c, 20)
	cfg.Solver = SolverMonolithic
	dense, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Solver = SolverDecomposed
	alias, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range states {
		da, err := dense.Decide(s, states[s], lengths[s])
		if err != nil {
			t.Fatal(err)
		}
		xa, err := alias.Decide(s, states[s], lengths[s])
		if err != nil {
			t.Fatal(err)
		}
		decisionsEqual(t, s, "decomposed-alias", da, xa)
	}
}

// TestDecomposedLinearBitIdentical: at beta = 0 the deprecated kind runs the
// compact greedy, bit-identical to the dense one.
func TestDecomposedLinearBitIdentical(t *testing.T) {
	decomposedAliasMatchesDense(t, Config{V: 7.5})
}

// TestDecomposedQuadraticAgreesWithDense: at beta > 0 the deprecated kind runs
// the compact warm-started Frank-Wolfe, whose decisions equal the dense
// solve's bit for bit, slot after slot.
func TestDecomposedQuadraticAgreesWithDense(t *testing.T) {
	decomposedAliasMatchesDense(t, Config{V: 7.5, Beta: 100})
}

// legacyDecomposedState is SchedulerState as the decomposed solver wrote it:
// the ADMM duals after the shared fields.
type legacyDecomposedState struct {
	Warm                                 []float64
	WarmValid                            bool
	WarmHits, WarmRepairs, WarmFallbacks int
	OptsReported                         bool
	DecomposedU, DecomposedZ             []float64
}

// TestDecomposedStateRoundTrip restores a state in the decomposed solver's
// gob form — duals included — into a fresh default scheduler. The duals are
// dropped, everything else is taken, and the continuation is bit-identical to
// the uninterrupted run.
func TestDecomposedStateRoundTrip(t *testing.T) {
	c := refCluster(t)
	const slots, split = 20, 10
	states, lengths := stateTestWorld(t, c, slots)
	cfg := Config{V: 7.5, Beta: 100}

	full, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []*model.Action
	for s := 0; s < slots; s++ {
		a, err := full.Decide(s, states[s], lengths[s])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, a.Clone()) // the scheduler rewrites a on its next Decide
	}

	first, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < split; s++ {
		if _, err := first.Decide(s, states[s], lengths[s]); err != nil {
			t.Fatal(err)
		}
	}
	st := first.ExportState()
	legacy := legacyDecomposedState{
		Warm: st.Warm, WarmValid: st.WarmValid,
		WarmHits: st.WarmHits, WarmRepairs: st.WarmRepairs, WarmFallbacks: st.WarmFallbacks,
		OptsReported: st.OptsReported,
		DecomposedU:  make([]float64, c.M()),
		DecomposedZ:  make([]float64, c.M()),
	}
	for m := range legacy.DecomposedU {
		legacy.DecomposedU[m], legacy.DecomposedZ[m] = -1-float64(m), 2+float64(m)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	var decoded SchedulerState
	if err := gob.NewDecoder(&buf).Decode(&decoded); err != nil {
		t.Fatalf("a state carrying decomposed duals no longer decodes: %v", err)
	}

	second, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.RestoreState(&decoded); err != nil {
		t.Fatal(err)
	}
	for s := split; s < slots; s++ {
		a, err := second.Decide(s, states[s], lengths[s])
		if err != nil {
			t.Fatal(err)
		}
		decisionsEqual(t, s, "restored", want[s], a)
	}
}

// TestDecomposedConfigValidation pins the gate: the deprecated kind is
// validated exactly like SolverSparse (no auxiliary resources) and runs as
// it; unknown kinds are ErrBadConfig.
func TestDecomposedConfigValidation(t *testing.T) {
	c := refCluster(t)
	if _, err := New(c, Config{V: 1, Solver: SolverKind(99)}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("unknown solver kind: got %v, want ErrBadConfig", err)
	}
	g, err := New(c, Config{V: 1, Solver: SolverDecomposed})
	if err != nil {
		t.Fatal(err)
	}
	if g.cfg.Solver != SolverSparse || !g.compact {
		t.Errorf("SolverDecomposed resolved to %v (compact %v), want the compact sparse solver", g.cfg.Solver, g.compact)
	}
	aux := auxCluster()
	for _, kind := range []SolverKind{SolverSparse, SolverDecomposed} {
		if _, err := New(aux, Config{V: 1, Solver: kind}); !errors.Is(err, ErrBadConfig) {
			t.Errorf("solver kind %d accepted a cluster with auxiliary resources: %v", int(kind), err)
		}
	}
	// Monolithic kinds still take auxiliary clusters.
	if _, err := New(aux, Config{V: 1, Solver: SolverMonolithic}); err != nil {
		t.Errorf("monolithic solver rejected auxiliary cluster: %v", err)
	}
	for kind, want := range map[SolverKind]string{
		SolverAuto: "auto", SolverMonolithic: "monolithic", SolverSparse: "sparse",
	} {
		if got := kind.String(); got != want {
			t.Errorf("SolverKind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
}
