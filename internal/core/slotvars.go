package core

import (
	"grefar/internal/fairness"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/solve"
)

// slotLayout maps the processing decision variables of one slot onto the
// flat vector the convex solvers operate on: the N*J processing variables
// h_{i,j} first, then each data center's busy-server variables b_{i,k}.
type slotLayout struct {
	nJ    int   // job types per site (stride of the h block)
	bOff  []int // bOff[i] is the first b index of data center i
	total int   // total variable count
}

func newSlotLayout(c *model.Cluster) slotLayout {
	l := slotLayout{nJ: c.J(), bOff: make([]int, c.N()), total: c.N() * c.J()}
	for i := 0; i < c.N(); i++ {
		l.bOff[i] = l.total
		l.total += c.K(i)
	}
	return l
}

func (l slotLayout) hIndex(i, j int) int { return i*l.nJ + j }

// SlotCoefficients assembles the linear data of the per-slot processing
// subproblem of (14) for the given backlogs and state:
//
//	cH[i][j]   = -q_{i,j}            (reward for processing)
//	cB[i][k]   = V * phi_i * p_k     (energy cost of a busy server)
//	hCap[i][j] = min(q_{i,j}, h_max) on eligible sites, 0 elsewhere
//
// These are the dense reference coefficients: the compact layout Decide
// runs on holds the same values for its active pairs (sparseSlot.refresh).
// Every beta = 0 reference solver in this package (the greedy exchange, the
// simplex LP) minimizes exactly cH.h + cB.b over the scheduling polytope;
// the invariant package's differential harness uses the same coefficients to
// cross-run the iterative solvers on identical inputs.
func SlotCoefficients(c *model.Cluster, cfg Config, st *model.State, q queue.Lengths) (cH, cB, hCap [][]float64) {
	cH = newMatrixNJ(c)
	cB = newMatrixNK(c)
	hCap = newMatrixNJ(c)
	for i := 0; i < c.N(); i++ {
		for j := 0; j < c.J(); j++ {
			cH[i][j] = -q.Local[i][j]
			if c.JobTypes[j].EligibleSet(i) {
				hCap[i][j] = processBudgetFor(&c.JobTypes[j], q.Local[i][j])
			}
		}
		for k, stype := range c.DataCenters[i].Servers {
			cB[i][k] = cfg.V * st.Price[i] * stype.Power
		}
	}
	return cH, cB, hCap
}

// SlotObjective builds the full convex slot objective of (14) over the
// concatenated (h, b) variables in slotLayout order — the same objective
// Decide minimizes when beta > 0: the linear drift/energy coefficients plus
// V*beta times the fairness penalty (and, under a non-linear tariff, the
// convex tariff term with the b-columns moved out of the linear part). It
// also returns the per-pair processing caps hCap that, together with
// SlotOracle, pin down the feasible set. The invariant package's
// differential harness uses this to run independent solvers against the
// exact objective the scheduler optimizes, so a disagreement isolates the
// iterative machinery rather than the problem statement. A nil cfg.Fairness
// resolves to the paper's quadratic penalty, as in New.
func SlotObjective(c *model.Cluster, cfg Config, st *model.State, q queue.Lengths) (solve.Objective, [][]float64, error) {
	cH, cB, hCap := SlotCoefficients(c, cfg, st, q)
	l := newSlotLayout(c)

	nonlinearTariff := !linearTariff(cfg.Tariff)
	linear := make([]float64, l.total)
	for i := 0; i < c.N(); i++ {
		for j := 0; j < c.J(); j++ {
			linear[l.hIndex(i, j)] = cH[i][j]
		}
		if !nonlinearTariff {
			for k := 0; k < c.K(i); k++ {
				linear[l.bOff[i]+k] = cB[i][k]
			}
		}
	}

	term := cfg.Fairness
	if term == nil {
		quad, err := fairness.NewQuadratic(AccountWeights(c))
		if err != nil {
			return nil, nil, err
		}
		term = quad
	}
	so := newSlotObjective(c, linear, cfg.V*cfg.Beta, st.TotalResource(c), term)
	if nonlinearTariff {
		so.attachTariff(c, st, cfg.Tariff, cfg.V)
	}
	return wrapSlotObjective(so), hCap, nil
}

// SlotOracle returns the linear-minimization oracle of the slot scheduling
// polytope (paper eq. 11 plus the per-pair bounds hCap, availability and any
// auxiliary rows): given a gradient over the concatenated (h, b) variables in
// slotLayout order, it writes a vertex minimizing grad.v. It is the dense
// reference of the compact oracle Decide runs (sparseSlot.oracle): the
// differential solver cross-checks run independent solvers against it, so a
// disagreement isolates the iterative machinery rather than the feasible set.
// The oracle is invoked once per solver iteration and the caller copies each
// vertex out immediately, so one workspace serves every call.
func SlotOracle(c *model.Cluster, st *model.State, hCap [][]float64) solve.LinearOracle {
	l := newSlotLayout(c)
	gradH, gradB, lin := newMatrixNJ(c), newMatrixNK(c), newLinearScratch(c)
	return func(grad []float64, out []float64) {
		for i := 0; i < c.N(); i++ {
			for j := 0; j < c.J(); j++ {
				gradH[i][j] = grad[l.hIndex(i, j)]
			}
			for k := 0; k < c.K(i); k++ {
				v := grad[l.bOff[i]+k]
				if v < 0 {
					v = 0 // b only enters with non-negative marginal cost; guard roundoff
				}
				gradB[i][k] = v
			}
		}
		var pr, bu [][]float64
		if c.Aux() > 0 {
			var err error
			pr, bu, _, err = solveSlotLPGeneral(c, st, gradH, gradB, hCap)
			if err != nil {
				return // zero vertex fallback
			}
		} else {
			la, err := solveLinearSlotWS(lin, c, st, gradH, gradB, hCap)
			if err != nil {
				return // unreachable given the clamp; zero vertex fallback
			}
			pr, bu = la.process, la.busy
		}
		for i := 0; i < c.N(); i++ {
			for j := 0; j < c.J(); j++ {
				out[l.hIndex(i, j)] = pr[i][j]
			}
			for k := 0; k < c.K(i); k++ {
				out[l.bOff[i]+k] = bu[i][k]
			}
		}
	}
}
