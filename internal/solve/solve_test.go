package solve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// simpleQuadratic builds f(x) = (x0-1)^2 + 2*(x1-2)^2 as a Quadratic.
func simpleQuadratic() *Quadratic {
	return &Quadratic{
		Linear: []float64{0, 0},
		Squares: []AffineSquare{
			{Weight: 1, Index: []int{0}, Coef: []float64{1}, Offset: -1},
			{Weight: 2, Index: []int{1}, Coef: []float64{1}, Offset: -2},
		},
	}
}

func TestQuadraticValueGradCurvature(t *testing.T) {
	q := simpleQuadratic()
	if err := q.Validate(2); err != nil {
		t.Fatal(err)
	}
	x := []float64{3, 1}
	if got, want := q.Value(x), 4.0+2.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Value = %v, want %v", got, want)
	}
	grad := make([]float64, 2)
	q.Grad(x, grad)
	if math.Abs(grad[0]-4) > 1e-12 || math.Abs(grad[1]+4) > 1e-12 {
		t.Errorf("Grad = %v, want [4 -4]", grad)
	}
	// Curvature along d: 2*(d0)^2 + 4*(d1)^2.
	if got, want := q.CurvatureAlong(x, []float64{1, 1}), 6.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("CurvatureAlong = %v, want %v", got, want)
	}
}

func TestQuadraticGradMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := &Quadratic{
		Linear: []float64{0.3, -1.2, 2.0, 0.1},
		Squares: []AffineSquare{
			{Weight: 1.5, Index: []int{0, 2}, Coef: []float64{1, -2}, Offset: 0.5},
			{Weight: 0.7, Index: []int{1, 3}, Coef: []float64{2, 1}, Offset: -1},
			{Weight: 2.0, Index: []int{0, 1, 2, 3}, Coef: []float64{1, 1, 1, 1}, Offset: 0},
		},
		Const: 3,
	}
	if err := q.Validate(4); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 4)
	for j := range x {
		x[j] = rng.Float64()*4 - 2
	}
	grad := make([]float64, 4)
	q.Grad(x, grad)
	const eps = 1e-6
	for j := range x {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[j] += eps
		xm[j] -= eps
		fd := (q.Value(xp) - q.Value(xm)) / (2 * eps)
		if math.Abs(fd-grad[j]) > 1e-5 {
			t.Errorf("grad[%d] = %v, finite difference %v", j, grad[j], fd)
		}
	}
}

func TestQuadraticValidate(t *testing.T) {
	q := &Quadratic{Linear: []float64{1}}
	if err := q.Validate(2); err == nil {
		t.Error("wrong linear length accepted")
	}
	q = &Quadratic{Linear: []float64{1, 1}, Squares: []AffineSquare{{Weight: -1}}}
	if err := q.Validate(2); err == nil {
		t.Error("negative weight accepted")
	}
	q = &Quadratic{Linear: []float64{1, 1}, Squares: []AffineSquare{{Weight: 1, Index: []int{5}, Coef: []float64{1}}}}
	if err := q.Validate(2); err == nil {
		t.Error("out-of-range index accepted")
	}
	q = &Quadratic{Linear: []float64{1, 1}, Squares: []AffineSquare{{Weight: 1, Index: []int{0}, Coef: []float64{1, 2}}}}
	if err := q.Validate(2); err == nil {
		t.Error("mismatched index/coef accepted")
	}
}

// boxOracle is the linear oracle for the box [0, hi]^n: pick hi where the
// gradient is negative, 0 otherwise.
func boxOracle(hi []float64) LinearOracle {
	return func(grad, out []float64) {
		for j := range out {
			if grad[j] < 0 {
				out[j] = hi[j]
			} else {
				out[j] = 0
			}
		}
	}
}

func TestFrankWolfeOnBox(t *testing.T) {
	// Minimize (x0-1)^2 + 2(x1-2)^2 over [0,5]^2: optimum (1,2), value 0.
	q := simpleQuadratic()
	res, err := FrankWolfe(q, boxOracle([]float64{5, 5}), []float64{0, 0}, FWOptions{MaxIters: 2000, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-3 || math.Abs(res.X[1]-2) > 1e-3 {
		t.Errorf("X = %v, want [1 2] (gap %v, iters %d)", res.X, res.Gap, res.Iters)
	}
	if res.Value > 1e-5 {
		t.Errorf("Value = %v, want ~0", res.Value)
	}
}

func TestFrankWolfeActiveConstraint(t *testing.T) {
	// Minimize (x0-4)^2 over [0,2]: optimum at the boundary x0=2.
	q := &Quadratic{
		Linear:  []float64{0},
		Squares: []AffineSquare{{Weight: 1, Index: []int{0}, Coef: []float64{1}, Offset: -4}},
	}
	res, err := FrankWolfe(q, boxOracle([]float64{2}), []float64{0}, FWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-6 {
		t.Errorf("X = %v, want [2]", res.X)
	}
	if !res.Converged {
		t.Error("expected convergence on a 1-D problem")
	}
}

func TestFrankWolfeLinearObjective(t *testing.T) {
	// A purely linear objective must land on a vertex in one step.
	q := &Quadratic{Linear: []float64{-1, 2, 0}}
	res, err := FrankWolfe(q, boxOracle([]float64{1, 1, 1}), []float64{0.5, 0.5, 0.5}, FWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-9 || math.Abs(res.X[1]) > 1e-9 {
		t.Errorf("X = %v, want x0=1, x1=0", res.X)
	}
}

func TestFrankWolfeGapIsUpperBound(t *testing.T) {
	// Property: for convex f, the reported gap bounds f(x) - f*.
	f := func(c0, c1 uint8) bool {
		q := &Quadratic{
			Linear: []float64{float64(c0%10) - 5, float64(c1%10) - 5},
			Squares: []AffineSquare{
				{Weight: 1, Index: []int{0}, Coef: []float64{1}, Offset: -float64(c1 % 4)},
				{Weight: 1, Index: []int{1}, Coef: []float64{1}, Offset: -float64(c0 % 4)},
			},
		}
		res, err := FrankWolfe(q, boxOracle([]float64{3, 3}), []float64{1, 1}, FWOptions{MaxIters: 500})
		if err != nil {
			return false
		}
		// Compare to dense grid optimum.
		best := math.Inf(1)
		for gx := 0; gx <= 90; gx++ {
			for gy := 0; gy <= 90; gy++ {
				v := q.Value([]float64{float64(gx) / 30, float64(gy) / 30})
				if v < best {
					best = v
				}
			}
		}
		return res.Value <= best+res.Gap+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestProjectedGradientMatchesFrankWolfe(t *testing.T) {
	q := &Quadratic{
		Linear: []float64{-3, 1, -0.5},
		Squares: []AffineSquare{
			{Weight: 2, Index: []int{0, 1}, Coef: []float64{1, 1}, Offset: -1},
			{Weight: 1, Index: []int{2}, Coef: []float64{1}, Offset: -2},
		},
	}
	hi := []float64{2, 2, 2}
	fw, err := FrankWolfe(q, boxOracle(hi), []float64{0, 0, 0}, FWOptions{MaxIters: 3000, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	pg := ProjectedGradient(q, func(x []float64) { ProjectBox(x, nil, hi) }, []float64{0, 0, 0}, PGOptions{MaxIters: 3000})
	if math.Abs(fw.Value-pg.Value) > 1e-4 {
		t.Errorf("FW value %v vs PG value %v", fw.Value, pg.Value)
	}
}

func TestProjectBox(t *testing.T) {
	x := []float64{-1, 0.5, 9}
	ProjectBox(x, nil, []float64{2, 2, 2})
	want := []float64{0, 0.5, 2}
	for j := range want {
		if x[j] != want[j] {
			t.Errorf("x[%d] = %v, want %v", j, x[j], want[j])
		}
	}
	x = []float64{-5, 5}
	ProjectBox(x, []float64{-1, -1}, nil)
	if x[0] != -1 || x[1] != 5 {
		t.Errorf("x = %v, want [-1 5]", x)
	}
}

func TestProjectWeightedCapBoxInactive(t *testing.T) {
	y := []float64{1, 1}
	ProjectWeightedCapBox(y, []float64{1, 1}, []float64{5, 5}, 10)
	if y[0] != 1 || y[1] != 1 {
		t.Errorf("inactive cap changed point: %v", y)
	}
}

func TestProjectWeightedCapBoxActive(t *testing.T) {
	// Project (3,3) onto {x >= 0, x <= 4, x0 + x1 <= 2}: answer (1,1).
	y := []float64{3, 3}
	ProjectWeightedCapBox(y, []float64{1, 1}, []float64{4, 4}, 2)
	if math.Abs(y[0]-1) > 1e-6 || math.Abs(y[1]-1) > 1e-6 {
		t.Errorf("y = %v, want [1 1]", y)
	}
}

// TestProjectWeightedCapBoxIsProjection property: the result is feasible and
// no grid point of the feasible set is closer to the input.
func TestProjectWeightedCapBoxIsProjection(t *testing.T) {
	f := func(aa, bb uint8) bool {
		y0 := []float64{float64(aa%60)/10 - 1, float64(bb%60)/10 - 1}
		w := []float64{1 + float64(bb%3), 1 + float64(aa%3)}
		hi := []float64{3, 3}
		cap := 4.0
		y := append([]float64(nil), y0...)
		ProjectWeightedCapBox(y, w, hi, cap)
		// Feasible?
		if y[0] < -1e-9 || y[1] < -1e-9 || y[0] > 3+1e-9 || y[1] > 3+1e-9 {
			return false
		}
		if w[0]*y[0]+w[1]*y[1] > cap+1e-6 {
			return false
		}
		dist := (y[0]-y0[0])*(y[0]-y0[0]) + (y[1]-y0[1])*(y[1]-y0[1])
		for gx := 0; gx <= 60; gx++ {
			for gy := 0; gy <= 60; gy++ {
				px, py := float64(gx)/20, float64(gy)/20
				if w[0]*px+w[1]*py > cap {
					continue
				}
				d := (px-y0[0])*(px-y0[0]) + (py-y0[1])*(py-y0[1])
				if d < dist-1e-4 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGoldenSection(t *testing.T) {
	got := GoldenSection(func(x float64) float64 { return (x - 1.7) * (x - 1.7) }, 0, 5, 1e-9)
	if math.Abs(got-1.7) > 1e-6 {
		t.Errorf("GoldenSection = %v, want 1.7", got)
	}
	// Boundary minimum.
	got = GoldenSection(func(x float64) float64 { return x }, 2, 9, 1e-9)
	if math.Abs(got-2) > 1e-6 {
		t.Errorf("GoldenSection = %v, want 2", got)
	}
}

func TestFWOptionsValidate(t *testing.T) {
	good := []FWOptions{{}, {MaxIters: 10, Tol: 1e-3}, {RequireConvergence: true}}
	for _, o := range good {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
	bad := []FWOptions{
		{MaxIters: -1},
		{Tol: -1e-9},
		{Tol: math.NaN()},
	}
	for _, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", o)
		}
	}
}

// TestAwayStepOnBoxMatchesVanilla holds the solver to TestFrankWolfeOnBox's
// optimum, the one stepping only toward vertices used to reach, ten times
// more tightly.
func TestAwayStepOnBoxMatchesVanilla(t *testing.T) {
	q := simpleQuadratic()
	res, err := FrankWolfe(q, boxOracle([]float64{5, 5}), []float64{0, 0}, FWOptions{MaxIters: 2000, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-2) > 1e-4 {
		t.Errorf("X = %v, want [1 2] (gap %v, iters %d)", res.X, res.Gap, res.Iters)
	}
	if res.Value > 1e-6 {
		t.Errorf("Value = %v, want ~0", res.Value)
	}
}

// TestAwayStepConvergesWhereVanillaZigzags pins the point of away steps: on
// a boundary optimum that is not a vertex, stepping only toward vertices
// zigzags between the adjacent ones at O(1/k), while dropping the misweighted
// atoms converges linearly, to a 1e-12 gap within 60 iterations.
func TestAwayStepConvergesWhereVanillaZigzags(t *testing.T) {
	// Minimize (x0 + x1 - 1)^2 + (x0 - x1 - 0.6)^2 over [0,1]^2: optimum
	// (0.8, 0.2), in the interior of no vertex.
	q := &Quadratic{
		Linear: []float64{0, 0},
		Squares: []AffineSquare{
			{Weight: 1, Index: []int{0, 1}, Coef: []float64{1, 1}, Offset: -1},
			{Weight: 1, Index: []int{0, 1}, Coef: []float64{1, -1}, Offset: -0.6},
		},
	}
	res, err := FrankWolfe(q, boxOracle([]float64{1, 1}), []float64{0, 0}, FWOptions{MaxIters: 60, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("did not converge in %d iters (gap %v)", res.Iters, res.Gap)
	}
	if math.Abs(res.X[0]-0.8) > 1e-6 || math.Abs(res.X[1]-0.2) > 1e-6 {
		t.Errorf("X = %v, want [0.8 0.2]", res.X)
	}
}

// TestAwayStepWarmStart starts from a feasible non-vertex point, the shape a
// cross-slot warm start hands the solver, and must still find the optimum.
func TestAwayStepWarmStart(t *testing.T) {
	q := simpleQuadratic()
	for _, start := range [][]float64{{0.9, 2.1}, {1, 2}, {5, 5}, {3, 0.5}} {
		res, err := FrankWolfe(q, boxOracle([]float64{5, 5}), start, FWOptions{MaxIters: 500, Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.X[0]-1) > 1e-4 || math.Abs(res.X[1]-2) > 1e-4 {
			t.Errorf("start %v: X = %v, want [1 2]", start, res.X)
		}
	}
	// A warm start at the optimum must converge immediately.
	res, err := FrankWolfe(q, boxOracle([]float64{5, 5}), []float64{1, 2}, FWOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 1 || !res.Converged {
		t.Errorf("optimum start took %d iters (converged %v), want 1", res.Iters, res.Converged)
	}
}

// TestAwayStepGapIsUpperBound is TestFrankWolfeGapIsUpperBound from a
// lopsided interior start: the certified gap still bounds suboptimality
// when the first atom is far from every vertex the solve visits.
func TestAwayStepGapIsUpperBound(t *testing.T) {
	f := func(c0, c1 uint8) bool {
		q := &Quadratic{
			Linear: []float64{float64(c0%10) - 5, float64(c1%10) - 5},
			Squares: []AffineSquare{
				{Weight: 1, Index: []int{0}, Coef: []float64{1}, Offset: -float64(c1 % 4)},
				{Weight: 1, Index: []int{1}, Coef: []float64{1}, Offset: -float64(c0 % 4)},
			},
		}
		res, err := FrankWolfe(q, boxOracle([]float64{3, 3}), []float64{2.5, 0.5}, FWOptions{MaxIters: 500})
		if err != nil {
			return false
		}
		best := math.Inf(1)
		for gx := 0; gx <= 90; gx++ {
			for gy := 0; gy <= 90; gy++ {
				v := q.Value([]float64{float64(gx) / 30, float64(gy) / 30})
				if v < best {
					best = v
				}
			}
		}
		return res.Value <= best+res.Gap+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAwayStepWorkspaceReuse runs solves of different dimensions through one
// workspace: pooled atoms resliced to the other dimension must carry no stale
// coordinates into it.
func TestAwayStepWorkspaceReuse(t *testing.T) {
	ws := &FWWorkspace{}
	opts := FWOptions{MaxIters: 500, Tol: 1e-10}
	q2 := simpleQuadratic()
	q3 := &Quadratic{
		Linear: []float64{-3, 1, -0.5},
		Squares: []AffineSquare{
			{Weight: 2, Index: []int{0, 1}, Coef: []float64{1, 1}, Offset: -1},
			{Weight: 1, Index: []int{2}, Coef: []float64{1}, Offset: -2},
		},
	}
	for round := 0; round < 3; round++ {
		r2, err := FrankWolfeWS(ws, q2, boxOracle([]float64{5, 5}), []float64{0, 0}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r2.X[0]-1) > 1e-4 || math.Abs(r2.X[1]-2) > 1e-4 {
			t.Fatalf("round %d dim 2: X = %v", round, r2.X)
		}
		r3, err := FrankWolfeWS(ws, q3, boxOracle([]float64{2, 2, 2}), []float64{0, 0, 0}, opts)
		if err != nil {
			t.Fatal(err)
		}
		pg := ProjectedGradient(q3, func(x []float64) { ProjectBox(x, nil, []float64{2, 2, 2}) }, []float64{0, 0, 0}, PGOptions{MaxIters: 3000})
		if math.Abs(r3.Value-pg.Value) > 1e-4 {
			t.Fatalf("round %d dim 3: away %v vs PG %v", round, r3.Value, pg.Value)
		}
	}
}
