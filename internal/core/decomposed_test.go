package core

import (
	"bytes"
	"encoding/gob"
	"testing"

	"grefar/internal/model"
	"grefar/internal/tariff"
)

// The decomposed solver is gone; SolverDecomposed survives only as a
// deprecated name the frozen benchmark still compiles against. These tests
// pin what is left of it: a scheduler configured with the name decides
// exactly as the default does, and states its schedulers wrote still restore.

// TestDecomposedLinearBitIdentical: at beta = 0 a scheduler naming the
// deprecated kind replays the dense layout's recorded decisions.
func TestDecomposedLinearBitIdentical(t *testing.T) {
	if got := decisionDigest(t, refCluster(t), Config{V: 7.5, Solver: SolverDecomposed}, 30); got != pinnedRefLinear {
		t.Errorf("decision digest %s, dense layout recorded %s", got, pinnedRefLinear)
	}
}

// TestDecomposedQuadraticAgreesWithDense: at beta > 0 a scheduler naming the
// deprecated kind replays the dense layout's recorded warm-started
// Frank-Wolfe decisions, slot after slot.
func TestDecomposedQuadraticAgreesWithDense(t *testing.T) {
	if got := decisionDigest(t, refCluster(t), Config{V: 7.5, Beta: 100, Solver: SolverDecomposed}, 30); got != pinnedRefConvex {
		t.Errorf("decision digest %s, dense layout recorded %s", got, pinnedRefConvex)
	}
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

// TestDecomposedConfigValidation pins the gate that is left: none. Every
// solver kind — the deprecated names and values no name ever had — is
// accepted on every input the default accepts, auxiliary resources and
// non-linear tariffs included, and decides exactly as the default does.
func TestDecomposedConfigValidation(t *testing.T) {
	quad, err := tariff.NewQuadratic(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		c   *model.Cluster
		cfg Config
	}{
		{refCluster(t), Config{V: 7.5, Beta: 100}},
		{auxCluster(), Config{V: 40}},
		{auxCluster(), Config{V: 40, Tariff: quad}},
		{twoSiteCluster(), Config{V: 40, Beta: 100, Tariff: quad}},
	} {
		want := decisionDigest(t, in.c, in.cfg, 10)
		for _, kind := range []SolverKind{SolverMonolithic, SolverSparse, SolverDecomposed, SolverKind(99)} {
			cfg := in.cfg
			cfg.Solver = kind
			if got := decisionDigest(t, in.c, cfg, 10); got != want {
				t.Errorf("solver kind %d on %d sites: decision digest %s, default %s", int(kind), in.c.N(), got, want)
			}
		}
	}
}
