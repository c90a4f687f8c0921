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

// TestSolverScaleSweep runs a miniature sweep and checks each cell produced
// a sane measurement, and the same objective when swept again: the timing is
// of a deterministic decision stream.
func TestSolverScaleSweep(t *testing.T) {
	cfg := SolverScaleConfig{
		Seed:      2012,
		Shapes:    [][2]int{{12, 6}},
		Densities: []float64{0.2, 1},
		Slots:     4,
	}
	res, err := SolverScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want one per density", len(res.Points))
	}
	again, err := SolverScale(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for x, pt := range res.Points {
		if pt.DecideMicros <= 0 {
			t.Errorf("density %v: non-positive decide latency %v", pt.Density, pt.DecideMicros)
		}
		if pt.AllocsPerDecide < 0 || math.IsNaN(pt.Objective) || pt.Objective == 0 {
			t.Errorf("density %v: bad measurement %+v", pt.Density, pt)
		}
		if pt.Objective != again.Points[x].Objective {
			t.Errorf("density %v: objective %v, then %v on the same instance", pt.Density, pt.Objective, again.Points[x].Objective)
		}
	}
}
