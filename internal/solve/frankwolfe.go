package solve

import (
	"errors"
	"fmt"
	"math"
)

// LinearOracle solves the linearized subproblem of Frank-Wolfe: given the
// current gradient, it writes into out a minimizer of grad . v over the
// feasible polytope. The oracle defines the feasible set; the solver never
// needs an explicit constraint description.
type LinearOracle func(grad []float64, out []float64)

// FWOptions tunes the Frank-Wolfe solver. Zero values select defaults.
type FWOptions struct {
	// MaxIters caps the number of iterations (default 200).
	MaxIters int
	// Tol is the duality-gap stopping tolerance (default 1e-7), measured
	// relative to 1+|f(x)|.
	Tol float64
	// RequireConvergence makes FrankWolfe return a NotConvergedError
	// (wrapping ErrNotConverged) when the gap tolerance is not met within
	// MaxIters, instead of silently returning the last iterate. Off by
	// default: the last iterate is feasible and its gap bounds the
	// suboptimality, which is usually good enough for a slot decision.
	RequireConvergence bool
}

// Validate rejects option values that a solve would otherwise have to paper
// over: a NaN or negative tolerance and a negative iteration cap have no
// sensible meaning (zero means "use the default" and stays accepted).
func (o FWOptions) Validate() error {
	if o.MaxIters < 0 {
		return fmt.Errorf("solve: MaxIters = %d is negative", o.MaxIters)
	}
	if math.IsNaN(o.Tol) {
		return errors.New("solve: Tol is NaN")
	}
	if o.Tol < 0 {
		return fmt.Errorf("solve: Tol = %v is negative", o.Tol)
	}
	return nil
}

func (o FWOptions) withDefaults() FWOptions {
	if o.MaxIters <= 0 {
		o.MaxIters = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	return o
}

// FWResult reports the outcome of a Frank-Wolfe run.
type FWResult struct {
	// X is the final iterate.
	X []float64
	// Value is f(X).
	Value float64
	// Gap is the final Frank-Wolfe duality gap grad.(x - v), an upper bound
	// on f(X) - f*.
	Gap float64
	// Iters is the number of iterations performed.
	Iters int
	// Converged reports whether the gap tolerance was met.
	Converged bool
}

// ErrDimensionMismatch is returned when the starting point and oracle output
// have different lengths.
var ErrDimensionMismatch = errors.New("solve: dimension mismatch between x0 and oracle output")

// ErrNotConverged is the sentinel wrapped by every convergence failure, so
// callers can classify solver outcomes with errors.Is without knowing which
// backend ran.
var ErrNotConverged = errors.New("solve: did not converge")

// NotConvergedError reports a solver stopping at its iteration cap with the
// tolerance unmet. It wraps ErrNotConverged (matchable with errors.Is) and
// carries the diagnosis for errors.As.
type NotConvergedError struct {
	// Solver names the backend, e.g. "frank-wolfe".
	Solver string
	// Iters is the number of iterations performed.
	Iters int
	// Residual is the final convergence residual (the duality gap for
	// Frank-Wolfe).
	Residual float64
}

// Error implements error.
func (e *NotConvergedError) Error() string {
	return fmt.Sprintf("solve: %s did not converge after %d iterations (residual %g)", e.Solver, e.Iters, e.Residual)
}

// Unwrap makes errors.Is(err, ErrNotConverged) true.
func (e *NotConvergedError) Unwrap() error { return ErrNotConverged }

// FWWorkspace holds the iterate and direction buffers of a Frank-Wolfe run
// and the active atom set of the iterate, so repeated solves allocate
// nothing. A workspace is sized lazily on first use and may be reused across
// calls of any dimension; it must not be shared between concurrent solves.
type FWWorkspace struct {
	x, grad, v, dir []float64

	// Active atom set: the iterate is the convex combination
	// sum_s weights[s]*atoms[s] over the first nAtoms entries. Entries beyond
	// nAtoms are a reuse pool whose vectors keep their capacity across
	// solves of any dimension; the set itself is rebuilt from the starting
	// point on every call.
	atoms   [][]float64
	weights []float64
	nAtoms  int
}

// resize makes every buffer exactly n long. It reallocates on growth, and
// also releases capacity when the requested size drops below a quarter of
// what is held: without that, a single large-instance solve would pin
// peak-sized scratch vectors and atom pool for the lifetime of the scheduler
// that owns the workspace. The 4x hysteresis keeps steady-state solves of
// equal or mildly varying size allocation-free: the compact slot dimension
// moves whenever a pair joins or leaves the active set.
func (ws *FWWorkspace) resize(n int) {
	c := cap(ws.x)
	if n > 0 && c >= 4*n {
		// Nil the pooled vectors before truncating: atoms[:0] keeps the
		// backing array, which would otherwise pin every one of them.
		clear(ws.atoms)
		ws.atoms = ws.atoms[:0]
	}
	if c < n || (n > 0 && c >= 4*n) {
		ws.x = make([]float64, n)
		ws.grad = make([]float64, n)
		ws.v = make([]float64, n)
		ws.dir = make([]float64, n)
	}
	ws.x = ws.x[:n]
	ws.grad = ws.grad[:n]
	ws.v = ws.v[:n]
	ws.dir = ws.dir[:n]
}

// weightEps is the atom weight below which an atom is dropped from the
// active set: barycentric mass that small is numerical dust and would only
// produce degenerate away steps.
const weightEps = 1e-12

// pushAtom appends a copy of src with the given weight, reusing a pooled
// vector (resliced, or grown when its capacity is short) when one is free.
func (ws *FWWorkspace) pushAtom(src []float64, w float64) {
	if ws.nAtoms == len(ws.atoms) {
		ws.atoms = append(ws.atoms, nil)
	}
	ws.atoms[ws.nAtoms] = append(ws.atoms[ws.nAtoms][:0], src...)
	if ws.nAtoms < len(ws.weights) {
		ws.weights[ws.nAtoms] = w
	} else {
		ws.weights = append(ws.weights, w)
	}
	ws.nAtoms++
}

// removeAtom swap-removes atom i, keeping its storage in the pool.
func (ws *FWWorkspace) removeAtom(i int) {
	last := ws.nAtoms - 1
	ws.atoms[i], ws.atoms[last] = ws.atoms[last], ws.atoms[i]
	ws.weights[i], ws.weights[last] = ws.weights[last], ws.weights[i]
	ws.nAtoms = last
}

// findAtom returns the index of the active atom equal to v, or -1. Equality
// is exact: oracle vertices are computed deterministically, so the same
// vertex reproduces the same floats; a near-duplicate merely becomes an
// extra atom, which costs a few flops but no correctness.
func (ws *FWWorkspace) findAtom(v []float64) int {
	for s := 0; s < ws.nAtoms; s++ {
		a := ws.atoms[s]
		same := true
		for j := range v {
			if a[j] != v[j] {
				same = false
				break
			}
		}
		if same {
			return s
		}
	}
	return -1
}

// FrankWolfe minimizes a convex objective over the polytope implicitly
// defined by the linear oracle, starting from the feasible point x0.
//
// It is the away-step variant (Guelat-Marcotte; analysis by Lacoste-Julien &
// Jaggi, NeurIPS 2015). The iterate is kept as a convex combination of atoms:
// the starting point, which need not be a vertex, plus every oracle vertex
// stepped toward. Each iteration calls the oracle at the current gradient to
// obtain a vertex v and compares the classic direction v - x against the
// away direction x - a, where a is the active atom with the largest gradient
// inner product, taking the steeper of the two; an away step capped at its
// maximal length drops atom a from the set entirely. That restores linear
// convergence on polytopes, where stepping only toward vertices zigzags at
// O(1/k). Steps use an exact line search when the objective exposes
// CurvatureAlong (always the case for Quadratic), or the diminishing step
// 2/(k+2) otherwise. Every iterate stays a convex combination of feasible
// atoms, and the duality gap grad.(x - v) >= f(x) - f* provides a certified
// stopping criterion.
func FrankWolfe(obj Objective, oracle LinearOracle, x0 []float64, opts FWOptions) (FWResult, error) {
	return FrankWolfeWS(nil, obj, oracle, x0, opts)
}

// FrankWolfeWS is FrankWolfe running inside the given workspace (nil gets a
// fresh one). The returned FWResult.X aliases workspace memory and is valid
// only until the next call with the same workspace; callers that keep the
// iterate must copy it out first.
func FrankWolfeWS(ws *FWWorkspace, obj Objective, oracle LinearOracle, x0 []float64, opts FWOptions) (FWResult, error) {
	if ws == nil {
		ws = &FWWorkspace{}
	}
	opts = opts.withDefaults()
	n := len(x0)
	ws.resize(n)
	x, grad, v, dir := ws.x, ws.grad, ws.v, ws.dir
	copy(x, x0)
	ws.nAtoms = 0
	ws.pushAtom(x, 1)
	curv, hasCurv := obj.(CurvatureAlong)

	var res FWResult
	// f(x) is tracked across iterations: the stopping test only needs it for
	// the relative-tolerance scale, and the exact line search updates it in
	// closed form, so the per-iteration full objective pass is unnecessary.
	fx := obj.Value(x)
	for k := 0; k < opts.MaxIters; k++ {
		res.Iters = k + 1
		obj.Grad(x, grad)
		for j := range v {
			v[j] = 0
		}
		oracle(grad, v)
		if len(v) != n {
			return FWResult{}, ErrDimensionMismatch
		}
		var gX, gV float64
		for j := range grad {
			gX += grad[j] * x[j]
			gV += grad[j] * v[j]
		}
		gap := gX - gV // grad.(x - v), the certified FW gap
		res.Gap = gap
		if gap <= opts.Tol*(1+math.Abs(fx)) {
			res.Converged = true
			break
		}

		// Away atom: the active atom with the largest gradient inner product
		// (ties to the lowest index, keeping the run deterministic).
		aIdx, gA := 0, math.Inf(-1)
		for s := 0; s < ws.nAtoms; s++ {
			var d float64
			a := ws.atoms[s]
			for j := range grad {
				d += grad[j] * a[j]
			}
			if d > gA {
				gA, aIdx = d, s
			}
		}

		away := ws.nAtoms > 1 && gA-gX > gap
		var gammaMax, gdotd float64
		if away {
			w := ws.weights[aIdx]
			if w > 1-weightEps {
				// Numerically all mass already sits on the away atom; the
				// away direction is degenerate. Restart the active set at
				// the current (feasible) iterate and try again.
				ws.nAtoms = 0
				ws.pushAtom(x, 1)
				continue
			}
			a := ws.atoms[aIdx]
			for j := range dir {
				dir[j] = x[j] - a[j]
			}
			gammaMax = w / (1 - w)
			gdotd = gX - gA
		} else {
			for j := range dir {
				dir[j] = v[j] - x[j]
			}
			gammaMax = 1
			gdotd = gV - gX
		}

		alpha := 2 / float64(k+2)
		var c float64
		if hasCurv {
			if c = curv.CurvatureAlong(x, dir); c > 0 {
				alpha = -gdotd / c
			} else {
				// Linear along dir: go as far as the step cap allows.
				alpha = gammaMax
			}
		}
		if alpha > gammaMax {
			alpha = gammaMax
		}
		if alpha < 0 {
			alpha = 0
		}
		for j := range x {
			x[j] += alpha * dir[j]
		}
		if hasCurv {
			if c < 0 {
				c = 0
			}
			fx += alpha*gdotd + 0.5*alpha*alpha*c
		} else {
			fx = obj.Value(x)
		}

		// Barycentric bookkeeping. Both updates preserve sum(weights) = 1.
		if away {
			for s := 0; s < ws.nAtoms; s++ {
				ws.weights[s] *= 1 + alpha
			}
			ws.weights[aIdx] -= alpha
		} else if alpha >= 1 {
			// Full step onto the vertex: the active set collapses to {v}.
			ws.nAtoms = 0
			ws.pushAtom(v, 1)
		} else {
			for s := 0; s < ws.nAtoms; s++ {
				ws.weights[s] *= 1 - alpha
			}
			if idx := ws.findAtom(v); idx >= 0 {
				ws.weights[idx] += alpha
			} else {
				ws.pushAtom(v, alpha)
			}
		}
		for s := ws.nAtoms - 1; s >= 0; s-- {
			if ws.weights[s] <= weightEps {
				ws.removeAtom(s)
			}
		}
	}
	res.X = x
	res.Value = obj.Value(x)
	if opts.RequireConvergence && !res.Converged {
		return res, &NotConvergedError{Solver: "frank-wolfe", Iters: res.Iters, Residual: res.Gap}
	}
	return res, nil
}
