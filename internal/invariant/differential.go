package invariant

import (
	"fmt"
	"math"

	"grefar/internal/core"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/solve"
	"grefar/internal/tariff"
)

// SolverObjectives holds the slot objective value each solver reached on one
// identical slot input. NaN marks a solver that does not apply (the
// closed-form greedy cannot handle auxiliary resources; the greedy and the
// simplex solve linear slots only, so both sit out when beta > 0).
type SolverObjectives struct {
	// Greedy is the closed-form greedy exchange's objective.
	Greedy float64
	// LP is the two-phase simplex objective.
	LP float64
	// FrankWolfe is the (away-step) Frank-Wolfe objective over the same
	// polytope.
	FrankWolfe float64
	// ProjGrad is the projected-gradient objective, using exact Euclidean
	// projection onto the slot polytope via dual bisection.
	ProjGrad float64
	// Decomposed is the block-decomposed solver's objective (sharing ADMM
	// over per-site subproblems plus a Frank-Wolfe polish), evaluated on the
	// same dense objective as the monolithic solvers. NaN when the cluster
	// has auxiliary resources or the tariff is non-linear (the decomposed
	// solver rejects those configurations).
	Decomposed float64
	// MaxRelDiff is the largest pairwise relative disagreement among the
	// applicable solvers.
	MaxRelDiff float64
}

// compare runs the pairwise relative-difference check over the applicable
// solver objectives, recording MaxRelDiff and failing past tol.
func (out *SolverObjectives) compare(tol float64) error {
	vals := []struct {
		name string
		v    float64
	}{
		{"greedy", out.Greedy},
		{"simplex", out.LP},
		{"frank-wolfe", out.FrankWolfe},
		{"projected-gradient", out.ProjGrad},
		{"decomposed", out.Decomposed},
	}
	for a := 0; a < len(vals); a++ {
		if math.IsNaN(vals[a].v) {
			continue
		}
		for b := a + 1; b < len(vals); b++ {
			if math.IsNaN(vals[b].v) {
				continue
			}
			rel := math.Abs(vals[a].v-vals[b].v) / math.Max(1, math.Max(math.Abs(vals[a].v), math.Abs(vals[b].v)))
			if rel > out.MaxRelDiff {
				out.MaxRelDiff = rel
			}
			if rel > tol {
				return fmt.Errorf("%w: solvers disagree: %s=%v vs %s=%v (relative diff %.3g > %.3g)",
					ErrViolation, vals[a].name, vals[a].v, vals[b].name, vals[b].v, rel, tol)
			}
		}
	}
	return nil
}

// CrossCheckSolvers is the differential testing engine for the per-slot
// processing problem. At beta = 0 it runs the greedy exchange, the simplex
// LP, Frank-Wolfe, and a projected-gradient solver on the identical slot
// input (cluster, config, state, backlogs); the solvers share no iterative
// machinery — greedy is combinatorial, the simplex pivots a tableau,
// Frank-Wolfe calls a linear oracle, and projected gradient only ever
// projects — so agreement is strong evidence each one is correct. At beta > 0
// the slot program is the convex QP of (14); the two one-shot linear solvers
// sit out (Greedy and LP are NaN) and the engine compares Frank-Wolfe and
// projected gradient on the exact objective core.Decide optimizes
// (core.SlotObjective), additionally verifying every final iterate is
// feasible for the scheduling polytope. An error wrapping ErrViolation
// reports any two objectives disagreeing by more than tol relatively, or an
// infeasible iterate.
//
// tol <= 0 selects 1e-6. Clusters with auxiliary resources skip the greedy
// (it handles the single capacity constraint only).
func CrossCheckSolvers(c *model.Cluster, cfg core.Config, st *model.State, q queue.Lengths, tol float64) (*SolverObjectives, error) {
	if tol <= 0 {
		tol = 1e-6
	}
	if cfg.Beta != 0 {
		return crossCheckQuadratic(c, cfg, st, q, tol)
	}
	out := &SolverObjectives{Greedy: math.NaN()}

	if c.Aux() == 0 {
		_, _, obj, err := core.SolveSlotGreedy(c, cfg, st, q)
		if err != nil {
			return nil, fmt.Errorf("%w: greedy solver failed: %v", ErrViolation, err)
		}
		out.Greedy = obj
	}

	_, _, lpObj, err := core.SolveSlotLP(c, cfg, st, q)
	if err != nil {
		return nil, fmt.Errorf("%w: LP solver failed: %v", ErrViolation, err)
	}
	out.LP = lpObj

	cH, cB, hCap := core.SlotCoefficients(c, cfg, st, q)
	out.FrankWolfe = frankWolfeSlot(c, st, cH, cB, hCap)
	out.ProjGrad = projGradSlot(c, st, cH, cB, hCap)

	out.Decomposed = math.NaN()
	if decomposedApplies(c, cfg) {
		x, err := core.SolveSlotDecomposed(c, cfg, st, q)
		if err != nil {
			return nil, fmt.Errorf("%w: decomposed solver failed: %v", ErrViolation, err)
		}
		l := newSlotVars(c)
		if err := checkSlotFeasible(c, st, hCap, l, x); err != nil {
			return out, fmt.Errorf("%w: decomposed iterate infeasible: %v", ErrViolation, err)
		}
		var v float64
		for i := 0; i < c.N(); i++ {
			for j := 0; j < c.J(); j++ {
				v += cH[i][j] * x[l.hIndex(i, j)]
			}
			for k := 0; k < c.K(i); k++ {
				v += cB[i][k] * x[l.bOff[i]+k]
			}
		}
		out.Decomposed = v
	}

	if err := out.compare(tol); err != nil {
		return out, err
	}
	return out, nil
}

// decomposedApplies reports whether the block-decomposed solver accepts this
// configuration: no auxiliary resources and a linear (or absent) tariff.
func decomposedApplies(c *model.Cluster, cfg core.Config) bool {
	if c.Aux() > 0 {
		return false
	}
	if cfg.Tariff != nil {
		if _, linear := cfg.Tariff.(tariff.Linear); !linear {
			return false
		}
	}
	return true
}

// crossCheckQuadratic is the beta > 0 arm of CrossCheckSolvers: Frank-Wolfe
// vs projected gradient (vs the decomposed solver, when it applies) on the
// convex slot objective, with feasibility verification of every final
// iterate. All of them converge linearly — the decomposed solver through its
// Frank-Wolfe polish — so their objectives must agree strictly within tol.
func crossCheckQuadratic(c *model.Cluster, cfg core.Config, st *model.State, q queue.Lengths, tol float64) (*SolverObjectives, error) {
	obj, hCap, err := core.SlotObjective(c, cfg, st, q)
	if err != nil {
		return nil, fmt.Errorf("%w: slot objective: %v", ErrViolation, err)
	}
	out := &SolverObjectives{Greedy: math.NaN(), LP: math.NaN()}
	l := newSlotVars(c)
	oracle := core.SlotOracle(c, st, hCap)

	fw, err := solve.FrankWolfe(obj, oracle, make([]float64, l.total), solve.FWOptions{MaxIters: 4000, Tol: 1e-10})
	if err != nil {
		return nil, fmt.Errorf("%w: frank-wolfe failed: %v", ErrViolation, err)
	}
	out.FrankWolfe = fw.Value

	pg := projGradQuadratic(c, st, obj, hCap)
	out.ProjGrad = pg.Value

	out.Decomposed = math.NaN()
	var decX []float64
	if decomposedApplies(c, cfg) {
		x, err := core.SolveSlotDecomposed(c, cfg, st, q)
		if err != nil {
			return nil, fmt.Errorf("%w: decomposed solver failed: %v", ErrViolation, err)
		}
		decX = x
		out.Decomposed = obj.Value(x)
	}

	for _, it := range []struct {
		name string
		x    []float64
	}{
		{"frank-wolfe", fw.X},
		{"projected-gradient", pg.X},
		{"decomposed", decX},
	} {
		if it.x == nil {
			continue
		}
		if err := checkSlotFeasible(c, st, hCap, l, it.x); err != nil {
			return out, fmt.Errorf("%w: %s iterate infeasible: %v", ErrViolation, it.name, err)
		}
	}
	if err := out.compare(tol); err != nil {
		return out, err
	}
	return out, nil
}

// feasTol is the absolute slack allowed when verifying solver iterates
// against the polytope, matching the model package's action feasibility
// tolerance.
const feasTol = 1e-6

// checkSlotFeasible verifies a flat (h, b) iterate against the scheduling
// polytope: the boxes [0, hCap] and [0, avail], the per-site capacity
// coupling (eq. 11), and the auxiliary rows.
func checkSlotFeasible(c *model.Cluster, st *model.State, hCap [][]float64, l slotVars, x []float64) error {
	for i := 0; i < c.N(); i++ {
		var work, capWork float64
		for j := 0; j < c.J(); j++ {
			h := x[l.hIndex(i, j)]
			if h < -feasTol || h > hCap[i][j]+feasTol {
				return fmt.Errorf("site %d job %d: h=%v outside [0, %v]", i, j, h, hCap[i][j])
			}
			work += c.JobTypes[j].Demand * h
		}
		for k, stype := range c.DataCenters[i].Servers {
			b := x[l.bOff[i]+k]
			if b < -feasTol || b > st.Avail[i][k]+feasTol {
				return fmt.Errorf("site %d server %d: b=%v outside [0, %v]", i, k, b, st.Avail[i][k])
			}
			capWork += stype.Speed * b
		}
		if work > capWork+feasTol*(1+capWork) {
			return fmt.Errorf("site %d: work %v exceeds capacity %v", i, work, capWork)
		}
		for r := 0; r < c.Aux(); r++ {
			var usage float64
			for j := 0; j < c.J(); j++ {
				if r < len(c.JobTypes[j].AuxDemand) {
					usage += c.JobTypes[j].AuxDemand[r] * x[l.hIndex(i, j)]
				}
			}
			if capR := c.DataCenters[i].AuxCapacity[r]; usage > capR+feasTol*(1+capR) {
				return fmt.Errorf("site %d aux %d: usage %v exceeds capacity %v", i, r, usage, capR)
			}
		}
	}
	return nil
}

// slotVars mirrors the core package's flat variable layout for the slot
// problem: the N*J processing variables h_{i,j} first (row-major), then each
// data center's busy-server variables b_{i,k}. core.SlotOracle documents this
// order as its contract.
type slotVars struct {
	nJ    int
	bOff  []int
	total int
}

func newSlotVars(c *model.Cluster) slotVars {
	l := slotVars{nJ: c.J(), bOff: make([]int, c.N()), total: c.N() * c.J()}
	for i := 0; i < c.N(); i++ {
		l.bOff[i] = l.total
		l.total += c.K(i)
	}
	return l
}

func (l slotVars) hIndex(i, j int) int { return i*l.nJ + j }

// frankWolfeSlot minimizes the linear slot objective with Frank-Wolfe over
// the scheduling polytope. The objective is linear, so the first oracle call
// lands on the optimal vertex and the exact line search jumps straight to it;
// the run still exercises the full gradient/oracle/gap machinery and the
// active-atom bookkeeping.
func frankWolfeSlot(c *model.Cluster, st *model.State, cH, cB, hCap [][]float64) float64 {
	l := newSlotVars(c)
	linear := make([]float64, l.total)
	for i := 0; i < c.N(); i++ {
		for j := 0; j < c.J(); j++ {
			linear[l.hIndex(i, j)] = cH[i][j]
		}
		for k := 0; k < c.K(i); k++ {
			linear[l.bOff[i]+k] = cB[i][k]
		}
	}
	obj := &solve.Quadratic{Linear: linear}
	oracle := core.SlotOracle(c, st, hCap)
	res, err := solve.FrankWolfe(obj, oracle, make([]float64, l.total), solve.FWOptions{MaxIters: 50, Tol: 1e-12})
	if err != nil {
		return math.NaN()
	}
	return res.Value
}

// projGradSlot minimizes the linear slot objective with projected gradient
// descent, one independent run per data center (the constraints do not couple
// sites). The feasible set — the box [0,hCap]x[0,avail] intersected with the
// capacity halfspace sum_j d_j h_j - sum_k s_k b_k <= 0 and the auxiliary
// halfspaces — is projected onto exactly via dual bisection, so this path
// shares nothing with the oracle-based solvers.
func projGradSlot(c *model.Cluster, st *model.State, cH, cB, hCap [][]float64) float64 {
	var total float64
	for i := 0; i < c.N(); i++ {
		total += projGradSite(c, st, i, cH[i], cB[i], hCap[i])
	}
	return total
}

// halfspace is one constraint a.x <= b.
type halfspace struct {
	a []float64
	b float64
}

// siteConstraints builds one data center's feasible set over its local
// (h, b) subvector — the box upper bounds and the halfspaces of the capacity
// coupling (eq. 11) plus the footnote-3 auxiliary rows. Both
// projected-gradient paths share it: the per-site runs of the linear mode
// and the gather/scatter projection of the quadratic mode.
func siteConstraints(c *model.Cluster, st *model.State, i int, hCap []float64) (hi []float64, hs []halfspace) {
	nJ, nK := c.J(), c.K(i)
	n := nJ + nK
	hi = make([]float64, n)
	copy(hi, hCap)
	for k := 0; k < nK; k++ {
		hi[nJ+k] = st.Avail[i][k]
	}

	capRow := halfspace{a: make([]float64, n)}
	for j := 0; j < nJ; j++ {
		capRow.a[j] = c.JobTypes[j].Demand
	}
	for k, stype := range c.DataCenters[i].Servers {
		capRow.a[nJ+k] = -stype.Speed
	}
	hs = []halfspace{capRow}
	for r := 0; r < c.Aux(); r++ {
		row := halfspace{a: make([]float64, n), b: c.DataCenters[i].AuxCapacity[r]}
		nonzero := false
		for j := 0; j < nJ; j++ {
			if r < len(c.JobTypes[j].AuxDemand) {
				row.a[j] = c.JobTypes[j].AuxDemand[r]
				nonzero = nonzero || row.a[j] != 0
			}
		}
		if nonzero {
			hs = append(hs, row)
		}
	}
	return hi, hs
}

func projGradSite(c *model.Cluster, st *model.State, i int, cH, cB, hCap []float64) float64 {
	nJ, nK := c.J(), c.K(i)
	n := nJ + nK
	linear := make([]float64, n)
	copy(linear, cH)
	for k := 0; k < nK; k++ {
		linear[nJ+k] = cB[k]
	}
	hi, hs := siteConstraints(c, st, i, hCap)

	project := func(x []float64) { projectPolytope(x, hi, hs) }
	obj := &solve.Quadratic{Linear: linear}
	res := solve.ProjectedGradient(obj, project, make([]float64, n), solve.PGOptions{
		MaxIters: 4000,
		Step:     64,
		Tol:      1e-12,
	})
	return res.Value
}

// projGradQuadratic minimizes the full beta > 0 slot objective with
// projected gradient descent over the whole concatenated (h, b) vector. The
// fairness term couples sites through shared accounts, so the objective
// cannot be split per site — but the constraints still can: the feasible set
// is a product of per-site polytopes, so the Euclidean projection decomposes
// into independent exact per-site projections, gathered from and scattered
// back to the site's non-contiguous slice of the flat vector.
func projGradQuadratic(c *model.Cluster, st *model.State, obj solve.Objective, hCap [][]float64) solve.PGResult {
	l := newSlotVars(c)
	type siteProj struct {
		idx []int // flat-vector index of each local variable
		hi  []float64
		hs  []halfspace
		buf []float64
	}
	sites := make([]siteProj, c.N())
	for i := 0; i < c.N(); i++ {
		nJ, nK := c.J(), c.K(i)
		sp := siteProj{idx: make([]int, nJ+nK), buf: make([]float64, nJ+nK)}
		for j := 0; j < nJ; j++ {
			sp.idx[j] = l.hIndex(i, j)
		}
		for k := 0; k < nK; k++ {
			sp.idx[nJ+k] = l.bOff[i] + k
		}
		sp.hi, sp.hs = siteConstraints(c, st, i, hCap[i])
		sites[i] = sp
	}
	project := func(x []float64) {
		for s := range sites {
			sp := &sites[s]
			for t, id := range sp.idx {
				sp.buf[t] = x[id]
			}
			projectPolytope(sp.buf, sp.hi, sp.hs)
			for t, id := range sp.idx {
				x[id] = sp.buf[t]
			}
		}
	}
	return solve.ProjectedGradient(obj, project, make([]float64, l.total), solve.PGOptions{
		MaxIters: 4000,
		Step:     64,
		Tol:      1e-12,
	})
}

// projectPolytope overwrites x with its exact Euclidean projection onto the
// intersection of the box [0, hi] with every halfspace, by recursive
// bisection on the dual multipliers: the projection is
// clamp(y - sum_m lambda_m a_m, 0, hi) for KKT multipliers lambda_m >= 0,
// and partially maximizing the (concave) dual over all but the last
// multiplier leaves a concave one-dimensional reduced dual, so the last
// multiplier can be bisected with each evaluation a recursive projection
// onto the remaining halfspaces. Exact projection is what projected gradient
// needs for correctness — with it, a projected step that returns x exactly
// certifies stationarity. The result is always box-feasible.
func projectPolytope(x []float64, hi []float64, hs []halfspace) {
	y := append([]float64(nil), x...)
	projectRecursive(x, y, hi, hs)
}

// projectRecursive writes into x the projection of y onto the box
// intersected with every halfspace in hs. The base case clamps to the box;
// each level solves the scalar multiplier of its last halfspace by
// bisection, evaluating g(lambda) = a.P_rest(y - lambda*a) - b, which is
// nonincreasing in lambda because it is the gradient of the reduced dual.
// The upper bracket end is kept, so the result lands on the feasible side.
func projectRecursive(x, y, hi []float64, hs []halfspace) {
	n := len(y)
	if len(hs) == 0 {
		for t := 0; t < n; t++ {
			v := y[t]
			if v < 0 {
				v = 0
			}
			if v > hi[t] {
				v = hi[t]
			}
			x[t] = v
		}
		return
	}
	h := hs[len(hs)-1]
	rest := hs[:len(hs)-1]
	z := make([]float64, n)
	at := func(lambda float64) float64 {
		for t := 0; t < n; t++ {
			z[t] = y[t] - lambda*h.a[t]
		}
		projectRecursive(x, z, hi, rest)
		var dot float64
		for t := 0; t < n; t++ {
			dot += h.a[t] * x[t]
		}
		return dot
	}
	if at(0) <= h.b {
		return
	}
	lambdaHi := 1.0
	for at(lambdaHi) > h.b && lambdaHi < 1e18 {
		lambdaHi *= 2
	}
	lambdaLo := 0.0
	for iter := 0; iter < 200; iter++ {
		mid := 0.5 * (lambdaLo + lambdaHi)
		if mid == lambdaLo || mid == lambdaHi {
			break
		}
		if at(mid) > h.b {
			lambdaLo = mid
		} else {
			lambdaHi = mid
		}
	}
	at(lambdaHi)
}
