package core

import (
	"math"
	"testing"

	"grefar/internal/model"
	"grefar/internal/solve"
)

// TestDecomposedLinearBitIdentical pins the beta = 0 decomposed path against
// the monolithic greedy: the linear slot decomposes trivially per site, so
// the decisions must be byte-identical, serial and pooled alike.
func TestDecomposedLinearBitIdentical(t *testing.T) {
	c := refCluster(t)
	states, lengths := stateTestWorld(t, c, 20)
	dense, err := New(c, Config{V: 7.5, Solver: SolverMonolithic})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4} {
		dec, err := New(c, Config{V: 7.5, Solver: SolverDecomposed, SolverWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for s := range states {
			da, err := dense.Decide(s, states[s], lengths[s])
			if err != nil {
				t.Fatal(err)
			}
			xa, err := dec.Decide(s, states[s], lengths[s])
			if err != nil {
				t.Fatal(err)
			}
			decisionsEqual(t, s, "decomposed-linear", da, xa)
		}
		dense, err = New(c, Config{V: 7.5, Solver: SolverMonolithic}) // reset for the next worker count
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecomposedQuadraticAgreesWithDense requires the decomposed solver's
// slot decisions to match the monolithic Frank-Wolfe solution in objective
// value to solver tolerance, slot after slot.
func TestDecomposedQuadraticAgreesWithDense(t *testing.T) {
	c := refCluster(t)
	states, lengths := stateTestWorld(t, c, 12)
	cfg := Config{V: 7.5, Beta: 100, FW: solve.FWOptions{MaxIters: 2000, Tol: 1e-9}}

	cfgDense := cfg
	cfgDense.Solver = SolverMonolithic
	dense, err := New(c, cfgDense)
	if err != nil {
		t.Fatal(err)
	}
	cfgDec := cfg
	cfgDec.Solver = SolverDecomposed
	dec, err := New(c, cfgDec)
	if err != nil {
		t.Fatal(err)
	}
	for s := range states {
		da, err := dense.Decide(s, states[s], lengths[s])
		if err != nil {
			t.Fatal(err)
		}
		xa, err := dec.Decide(s, states[s], lengths[s])
		if err != nil {
			t.Fatal(err)
		}
		vd := processingObjective(c, cfg, states[s], lengths[s], da.Process)
		vx := processingObjective(c, cfg, states[s], lengths[s], xa.Process)
		scale := math.Max(1, math.Max(math.Abs(vd), math.Abs(vx)))
		if rel := math.Abs(vd-vx) / scale; rel > 1e-6 {
			t.Errorf("slot %d: dense objective %v vs decomposed %v (rel %.3g)", s, vd, vx, rel)
		}
	}
}

// TestDecomposedDeterministicAcrossWorkers pins the pooled-reduction
// determinism claim: the decomposed solver's decision stream is byte-identical
// at every worker count, because block solves write disjoint state and all
// reductions run serially in site order.
func TestDecomposedDeterministicAcrossWorkers(t *testing.T) {
	c := refCluster(t)
	states, lengths := stateTestWorld(t, c, 15)
	run := func(workers int) []*model.Action {
		cfg := Config{V: 7.5, Beta: 100, Solver: SolverDecomposed, SolverWorkers: workers}
		g, err := New(c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var acts []*model.Action
		for s := range states {
			a, err := g.Decide(s, states[s], lengths[s])
			if err != nil {
				t.Fatal(err)
			}
			acts = append(acts, a.Clone()) // a is rewritten by the next Decide
		}
		return acts
	}
	want := run(1)
	for _, workers := range []int{2, 4, 8} {
		got := run(workers)
		for s := range want {
			decisionsEqual(t, s, "workers", want[s], got[s])
		}
	}
}

// TestDecomposedStateRoundTrip exports a decomposed scheduler's state
// mid-stream — warm iterate plus ADMM dual prices — restores it into a fresh
// instance, and requires the continuation to be byte-identical to the
// uninterrupted run.
func TestDecomposedStateRoundTrip(t *testing.T) {
	c := refCluster(t)
	const slots, split = 20, 10
	states, lengths := stateTestWorld(t, c, slots)
	cfg := Config{V: 7.5, Beta: 100, Solver: SolverDecomposed}

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
	exported := first.ExportState()
	if exported.DecomposedU == nil || exported.DecomposedZ == nil {
		t.Fatal("decomposed scheduler exported no dual state")
	}

	second, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := second.RestoreState(exported); err != nil {
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

// TestDecomposedConfigValidation pins the gate: sparse solver kinds reject
// auxiliary resources and non-linear tariffs, and bad knobs are ErrBadConfig.
func TestDecomposedConfigValidation(t *testing.T) {
	c := refCluster(t)
	if _, err := New(c, Config{V: 1, Solver: SolverKind(99)}); err == nil {
		t.Error("unknown solver kind accepted")
	}
	if _, err := New(c, Config{V: 1, SolverWorkers: -2}); err == nil {
		t.Error("negative worker count accepted")
	}
	aux := auxCluster()
	if _, err := New(aux, Config{V: 1, Solver: SolverSparse}); err == nil {
		t.Error("sparse solver accepted a cluster with auxiliary resources")
	}
	if _, err := New(aux, Config{V: 1, Solver: SolverDecomposed}); err == nil {
		t.Error("decomposed solver accepted a cluster with auxiliary resources")
	}
	// Monolithic kinds still take auxiliary clusters.
	if _, err := New(aux, Config{V: 1, Solver: SolverMonolithic}); err != nil {
		t.Errorf("monolithic solver rejected auxiliary cluster: %v", err)
	}
	for kind, want := range map[SolverKind]string{
		SolverAuto: "auto", SolverMonolithic: "monolithic",
		SolverSparse: "sparse", SolverDecomposed: "decomposed",
	} {
		if got := kind.String(); got != want {
			t.Errorf("SolverKind(%d).String() = %q, want %q", int(kind), got, want)
		}
	}
}

// TestDecomposedRho pins the penalty heuristic's edges.
func TestDecomposedRho(t *testing.T) {
	if r := decomposedRho(0, 10, 100); r != 1 {
		t.Errorf("vbeta=0: rho %v, want 1", r)
	}
	if r := decomposedRho(750, 3, 150); r != 2*750*3/(150.0*150.0) {
		t.Errorf("rho %v, want curvature scale", r)
	}
	if r := decomposedRho(1e-30, 2, 1e10); r != 1 {
		t.Errorf("tiny curvature: rho %v, want fallback 1", r)
	}
}
