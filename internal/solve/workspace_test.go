package solve

import (
	"testing"
)

// unitBoxOracle is the [0, 1]^n instance of the shared boxOracle helper.
func unitBoxOracle(n int) LinearOracle {
	hi := make([]float64, n)
	for j := range hi {
		hi[j] = 1
	}
	return boxOracle(hi)
}

// boxQuadratic builds f(x) = sum_j (x_j - c_j)^2 with minimizer c inside the
// unit box.
func boxQuadratic(center []float64) *Quadratic {
	q := &Quadratic{Linear: make([]float64, len(center))}
	for j, cj := range center {
		q.Squares = append(q.Squares, AffineSquare{
			Weight: 1, Index: []int{j}, Coef: []float64{1}, Offset: -cj,
		})
	}
	return q
}

func TestFWWorkspaceResizeReleasesCapacity(t *testing.T) {
	var ws FWWorkspace
	ws.resize(1024)
	big := cap(ws.x)
	if big < 1024 {
		t.Fatalf("resize(1024) left cap %d", big)
	}

	// Mild shrink keeps the backing arrays (hysteresis).
	ws.resize(600)
	if cap(ws.x) != big {
		t.Fatalf("resize(600) reallocated: cap %d, want %d kept", cap(ws.x), big)
	}
	if len(ws.x) != 600 {
		t.Fatalf("resize(600) left len %d", len(ws.x))
	}

	// Dropping below a quarter of the held capacity must release it.
	ws.resize(100)
	if cap(ws.x) >= big {
		t.Fatalf("resize(100) kept peak capacity %d", cap(ws.x))
	}
	if len(ws.x) != 100 || len(ws.grad) != 100 || len(ws.v) != 100 || len(ws.dir) != 100 {
		t.Fatal("resize(100) left inconsistent buffer lengths")
	}

	// The atom pool is released with the vectors.
	ws.resize(50)
	ws.pushAtom(make([]float64, 50), 1)
	ws.resize(8)
	for _, a := range ws.atoms[:cap(ws.atoms)] {
		if a != nil {
			t.Fatal("a 4x shrink kept a pooled atom reachable")
		}
	}
}

// TestFWWorkspaceSteadyStateAllocFree pins the workspace contract: repeated
// same-sized solves — the shape of every slot decision a scheduler makes —
// allocate nothing after the first call.
func TestFWWorkspaceSteadyStateAllocFree(t *testing.T) {
	center := []float64{0.3, 0.8, 0.5, 0.1}
	obj := boxQuadratic(center)
	x0 := make([]float64, len(center))
	oracle := unitBoxOracle(len(center))
	var ws FWWorkspace
	opts := FWOptions{MaxIters: 60, Tol: 1e-9}
	if _, err := FrankWolfeWS(&ws, obj, oracle, x0, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := FrankWolfeWS(&ws, obj, oracle, x0, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state solve allocates %v times per run", allocs)
	}
}

// TestAwayStepWorkspaceReusesAtomsAcrossDimensions alternates two problem
// dimensions within the 4x hysteresis on one workspace — a compact slot
// problem changes size whenever a pair joins or leaves the active set — and
// requires the steady state to allocate nothing: the pooled atoms are
// resliced, not dropped. A drop below a quarter of the held size must still
// release the pool.
func TestAwayStepWorkspaceReusesAtomsAcrossDimensions(t *testing.T) {
	problem := func(n int) (Objective, LinearOracle, []float64) {
		center := make([]float64, n)
		for j := range center {
			center[j] = float64(j%7) / 7
		}
		return boxQuadratic(center), unitBoxOracle(n), make([]float64, n)
	}
	objA, oracleA, x0A := problem(40)
	objB, oracleB, x0B := problem(25)
	var ws FWWorkspace
	opts := FWOptions{MaxIters: 60, Tol: 1e-9}
	both := func() {
		if _, err := FrankWolfeWS(&ws, objA, oracleA, x0A, opts); err != nil {
			t.Fatal(err)
		}
		if _, err := FrankWolfeWS(&ws, objB, oracleB, x0B, opts); err != nil {
			t.Fatal(err)
		}
	}
	for range 3 {
		both()
	}
	if ws.nAtoms < 2 {
		t.Fatalf("solve left %d active atoms; the pool is not exercised", ws.nAtoms)
	}
	if allocs := testing.AllocsPerRun(20, both); allocs != 0 {
		t.Errorf("alternating dimensions 40/25 allocates %v times per pair of solves", allocs)
	}

	peak := cap(ws.x)
	objS, oracleS, x0S := problem(peak/4 - 1)
	if _, err := FrankWolfeWS(&ws, objS, oracleS, x0S, opts); err != nil {
		t.Fatal(err)
	}
	for s, a := range ws.atoms {
		if cap(a) >= peak {
			t.Fatalf("after a 4x shrink atom %d still holds capacity %d (peak %d)", s, cap(a), peak)
		}
	}
}

// goldenSectionReference is the pre-cap implementation: loop purely on the
// width test. The capped search must pin its minimizers exactly whenever the
// reference terminates.
func goldenSectionReference(f func(float64) float64, a, b, tol float64) float64 {
	const invPhi = 0.6180339887498949
	if tol <= 0 {
		tol = 1e-10
	}
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for b-a > tol {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return (a + b) / 2
}

func TestGoldenSectionMatchesUncappedReference(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		tol  float64
	}{
		{"parabola", func(x float64) float64 { return (x - 1.7) * (x - 1.7) }, 0, 5, 1e-9},
		{"linear", func(x float64) float64 { return x }, 2, 9, 1e-9},
		{"quartic", func(x float64) float64 { d := x - 0.25; return d * d * d * d }, -3, 4, 1e-8},
		{"default-tol", func(x float64) float64 { return (x + 2) * (x + 2) }, -10, 10, 0},
	}
	for _, tc := range cases {
		got := GoldenSection(tc.f, tc.a, tc.b, tc.tol)
		want := goldenSectionReference(tc.f, tc.a, tc.b, tc.tol)
		if got != want {
			t.Errorf("%s: capped search returned %v, reference %v", tc.name, got, want)
		}
	}
}

// TestGoldenSectionTerminatesBelowResolution drives the search with a
// tolerance far below the floating-point resolution of the bracket — the
// regime where the pure width test can never be satisfied — and requires
// termination at a sensible point.
func TestGoldenSectionTerminatesBelowResolution(t *testing.T) {
	got := GoldenSection(func(x float64) float64 { return (x - 3) * (x - 3) }, 0, 1e6, 1e-300)
	if got < 3-1e-6 || got > 3+1e-6 {
		t.Errorf("sub-resolution tolerance: minimizer %v, want ~3", got)
	}
	// A constant objective exercises the stall path with no curvature signal.
	flat := GoldenSection(func(float64) float64 { return 1 }, 0, 1, 1e-300)
	if flat < 0 || flat > 1 {
		t.Errorf("constant objective escaped the bracket: %v", flat)
	}
}
