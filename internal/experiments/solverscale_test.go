package experiments

import (
	"math"
	"testing"
)

func TestNewSolverScaleInstanceShape(t *testing.T) {
	in, err := NewSolverScaleInstance(2012, 40, 20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if in.Cluster.N() != 40 || in.Cluster.J() != 20 {
		t.Fatalf("instance shape %dx%d, want 40x20", in.Cluster.N(), in.Cluster.J())
	}
	want := 0.1 * 40 * 20
	if f := float64(in.ActivePairs); f < want/2 || f > want*2 {
		t.Errorf("active pairs %d, want around %.0f", in.ActivePairs, want)
	}
	if _, err := NewSolverScaleInstance(1, 0, 5, 0.1); err == nil {
		t.Error("zero-site instance accepted")
	}
	if _, err := NewSolverScaleInstance(1, 5, 5, 1.5); err == nil {
		t.Error("density > 1 accepted")
	}

	// Mutation drifts values but preserves the active-pair set.
	active := func() int {
		n := 0
		for i := range in.Lengths.Local {
			for j := range in.Lengths.Local[i] {
				if in.Lengths.Local[i][j] > 0 {
					n++
				}
			}
		}
		return n
	}
	before := active()
	for s := 0; s < 10; s++ {
		in.Mutate()
	}
	if after := active(); after != before {
		t.Errorf("mutation changed active pairs: %d -> %d", before, after)
	}
}

// TestSolverScaleSweep runs a miniature sweep and checks every arm produced a
// sane measurement and all arms of a cell land on nearby objectives — the
// solvers are interchangeable, not just individually fast.
func TestSolverScaleSweep(t *testing.T) {
	res, err := SolverScale(SolverScaleConfig{
		Seed:      2012,
		Shapes:    [][2]int{{12, 6}},
		Densities: []float64{0.2},
		Slots:     4,
		Workers:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("got %d points, want 5 arms", len(res.Points))
	}
	names := map[string]bool{}
	var ref float64
	for _, pt := range res.Points {
		names[pt.Solver] = true
		if pt.DecideMicros <= 0 {
			t.Errorf("%s: non-positive decide latency %v", pt.Solver, pt.DecideMicros)
		}
		if pt.AllocsPerDecide < 0 || math.IsNaN(pt.Objective) {
			t.Errorf("%s: bad measurement %+v", pt.Solver, pt)
		}
		if pt.Solver == "monolithic" {
			ref = pt.Objective
		}
	}
	for _, pt := range res.Points {
		if pt.Solver == "auto" && pt.Objective != ref {
			t.Errorf("auto objective %v differs from monolithic %v: the two decide bit-identically", pt.Objective, ref)
		}
		scale := math.Max(1, math.Abs(ref))
		if math.Abs(pt.Objective-ref)/scale > 0.01 {
			t.Errorf("%s objective %v far from monolithic %v", pt.Solver, pt.Objective, ref)
		}
	}
	for _, want := range []string{"auto", "monolithic", "sparse", "decomposed", "decomposed-pool"} {
		if !names[want] {
			t.Errorf("missing arm %q", want)
		}
	}
}
