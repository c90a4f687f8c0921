package core

import (
	"context"
	"fmt"
	"math"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/runner"
	"grefar/internal/solve"
	"grefar/internal/telemetry"
)

// This file implements Config.Solver = SolverDecomposed: the slot decision
// split into per-data-center blocks — each site's (h_i., b_i.) variables
// under its own availability and h-cap box — coupled only through the
// per-account allocation sums the fairness penalty charges. The coupling is
// handled by the scaled sharing form of ADMM (internal/solve/admm.go): each
// outer iteration solves every site's box-constrained quadratic subproblem
// independently (concurrently on the internal/runner pool when
// Config.SolverWorkers > 1), averages the per-account contributions serially
// in site order, and updates the shared dual prices. The dual prices live in
// account space, persist across slots (consecutive slot problems differ only
// by backlogs and prices, so last slot's prices are nearly right), and are
// part of the exported SchedulerState.
//
// After the ADMM rounds, the concatenated block iterate — feasible by
// construction, since every block stayed inside its own polytope — seeds one
// warm-started away-step Frank-Wolfe polish on the compact monolithic
// objective. The polish owns the accuracy guarantee: it terminates
// immediately when the ADMM point already meets the monolithic gap tolerance
// and otherwise finishes the job, which is what makes the decomposed solver
// agree with the monolithic ones to CrossCheckSolvers tolerance no matter
// how the ADMM rounds went.
//
// Determinism at any worker count: block subproblems write only their own
// site's buffers, every reduction (contribution averaging, dual update,
// final gather) runs serially in site order after the block barrier, and
// the per-site solves are themselves deterministic — so serial and pooled
// runs produce byte-identical actions.

// decSite is one data center's block: the site-local subproblem
//
//	min  cost.x + sum_m (rho/2) (A_m.x - v_m)^2   over the site's box/capacity polytope
//
// in site-local layout (the site's active h variables first, then its b
// variables), solved by away-step Frank-Wolfe with the site-local greedy
// exchange as oracle.
type decSite struct {
	nh, nb int
	x      []float64 // current block iterate
	cost   []float64 // site-local linear cost (copied from the compact linear)
	hCap   []float64 // site-local h caps
	acct   []int     // account of each local h variable
	dem    []float64 // demand of each local h variable

	// contrib is A_i x_i: the site's per-account allocated work.
	contrib []float64

	// obj is the block quadratic: Linear = cost, one AffineSquare per
	// account present at the site (weights/offsets set per ADMM round).
	obj    solve.Quadratic
	sqAcct []int

	fw solve.FWWorkspace
}

// decomposedScratch is the per-scheduler state of the decomposed solver.
type decomposedScratch struct {
	sites    []decSite
	contribs [][]float64 // contribs[i] aliases sites[i].contrib
	oracles  []solve.LinearOracle
	scr      []siteScratch // per-site greedy scratch (pooled stages)
	shw      solve.SharingWorkspace
	xfull    []float64 // concatenated compact iterate for the polish
	allocBuf []float64 // prox scratch, len M
	gradBuf  []float64
	gen      int // sparse index generation the sites were built for
}

func newDecomposedScratch(c *model.Cluster) *decomposedScratch {
	n, m := c.N(), c.M()
	d := &decomposedScratch{
		sites:    make([]decSite, n),
		contribs: make([][]float64, n),
		oracles:  make([]solve.LinearOracle, n),
		scr:      make([]siteScratch, n),
		allocBuf: make([]float64, m),
		gradBuf:  make([]float64, m),
		gen:      -1,
	}
	for i := range d.scr {
		d.scr[i].segs = make([]segment, 0, c.K(i))
		d.scr[i].jobs = make([]jobDemand, 0, c.J())
	}
	return d
}

// parallelSites runs f for every site, serially when workers <= 1 and on the
// runner pool otherwise, handing each site its own scratch. Callers must
// only write site-owned state (or disjoint ranges of a shared vector).
func (d *decomposedScratch) parallelSites(sp *sparseSlot, workers int, f func(i int, scr *siteScratch) error) error {
	n := sp.c.N()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i, &d.scr[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return runner.Do(context.Background(), workers, n, func(_ context.Context, i int) error {
		return f(i, &d.scr[i])
	})
}

// rebuildSites reconstructs the per-site block structures for the current
// active-pair index. Runs only when the index generation moved; the per-slot
// value refresh is refreshValues.
func (d *decomposedScratch) rebuildSites(sp *sparseSlot) {
	c := sp.c
	m := c.M()
	for i := range d.sites {
		ds := &d.sites[i]
		nh := sp.siteOff[i+1] - sp.siteOff[i]
		nb := c.K(i)
		ds.nh, ds.nb = nh, nb
		ds.x = resizeFloats(ds.x, nh+nb)
		ds.cost = resizeFloats(ds.cost, nh+nb)
		ds.hCap = resizeFloats(ds.hCap, nh)
		ds.acct = resizeInts(ds.acct, nh)
		ds.dem = resizeFloats(ds.dem, nh)
		if len(ds.contrib) != m {
			ds.contrib = make([]float64, m)
		}
		d.contribs[i] = ds.contrib
		for s := 0; s < nh; s++ {
			t := sp.siteOff[i] + s
			ds.acct[s] = sp.account[t]
			ds.dem[s] = sp.demand[t]
		}
		// One affine square per account present at the site, in account
		// order (deterministic; absent accounts contribute a constant and
		// are skipped).
		ds.obj.Squares = ds.obj.Squares[:0]
		ds.sqAcct = ds.sqAcct[:0]
		for acct := 0; acct < m; acct++ {
			var idx []int
			var coef []float64
			for s := 0; s < nh; s++ {
				if ds.acct[s] == acct {
					idx = append(idx, s)
					coef = append(coef, ds.dem[s])
				}
			}
			if len(idx) == 0 {
				continue
			}
			ds.obj.Squares = append(ds.obj.Squares, solve.AffineSquare{Index: idx, Coef: coef})
			ds.sqAcct = append(ds.sqAcct, acct)
		}
		ds.obj.Linear = ds.cost
	}
}

// refreshValues copies the current compact coefficients into the site-local
// cost and cap vectors (the index is unchanged, only values moved).
func (d *decomposedScratch) refreshValues(sp *sparseSlot) {
	for i := range d.sites {
		ds := &d.sites[i]
		copy(ds.cost[:ds.nh], sp.linear[sp.siteOff[i]:sp.siteOff[i+1]])
		copy(ds.cost[ds.nh:], sp.linear[sp.bOffC[i]:sp.bOffC[i]+ds.nb])
		copy(ds.hCap, sp.hCap[sp.siteOff[i]:sp.siteOff[i+1]])
	}
}

// computeContrib fills A_i x_i from the current block iterate.
func (ds *decSite) computeContrib() {
	for m := range ds.contrib {
		ds.contrib[m] = 0
	}
	for s := 0; s < ds.nh; s++ {
		ds.contrib[ds.acct[s]] += ds.dem[s] * ds.x[s]
	}
}

// oracle is the site-local greedy exchange in the block's local layout.
func (ds *decSite) oracle(c *model.Cluster, st *model.State, i int, scr *siteScratch) solve.LinearOracle {
	return func(grad, out []float64) {
		for j := range out {
			out[j] = 0
		}
		segs := scr.segs[:0]
		for k, stype := range c.DataCenters[i].Servers {
			cb := grad[ds.nh+k]
			if cb < 0 {
				cb = 0
			}
			capWork := st.Avail[i][k] * stype.Speed
			if capWork <= 0 {
				continue
			}
			segs = append(segs, segment{
				serverType: k,
				cap:        capWork,
				density:    cb / stype.Speed,
				speed:      stype.Speed,
			})
		}
		sortSegsByDensity(segs)
		jobs := scr.jobs[:0]
		for s := 0; s < ds.nh; s++ {
			if grad[s] >= 0 || ds.hCap[s] <= 0 {
				continue
			}
			d := ds.dem[s]
			jobs = append(jobs, jobDemand{job: s, work: ds.hCap[s] * d, density: -grad[s] / d, demand: d})
		}
		scr.segs, scr.jobs = segs, jobs
		greedyExchange(segs, jobs, out, out[ds.nh:], 0)
	}
}

// decomposedRho picks the starting ADMM penalty from the curvature scale of
// the quadratic fairness coupling: P is O(1/total^2) per unit squared
// allocation, charged with weight vbeta over n sites. Residual balancing
// (SharingOptions.Adaptive) corrects any misestimate, and the polish owns
// final accuracy regardless.
func decomposedRho(vbeta float64, n int, total float64) float64 {
	if vbeta > 0 && total > 0 {
		if r := 2 * vbeta * float64(n) / (total * total); r > 1e-8 {
			return r
		}
	}
	return 1
}

// decomposedFWOptions tunes the per-block subproblem solves: a tolerance well
// under the outer residual thresholds and a bounded iteration budget (the
// polish cleans up whatever the blocks leave).
var decomposedFWOptions = solve.FWOptions{MaxIters: 120, Tol: 1e-10}

// proxFor builds the sharing prox for the fairness coupling g(a) =
// vbeta*P(a, total): per account, the scalar stationarity condition
//
//	vbeta * dP/da_m(n*z) + rho*(z - t_m) = 0
//
// is solved by bracketed bisection — monotone in z by convexity of P. Cross
// terms of a non-separable P are frozen at the averaged point n*t (exact for
// the paper's separable quadratic penalty; for anything else the polish
// restores full accuracy).
func (d *decomposedScratch) proxFor(term FairnessTerm, vbeta, total float64, n int) solve.SharingProx {
	nf := float64(n)
	return func(t []float64, rho float64, z []float64) {
		if vbeta == 0 || total <= 0 {
			copy(z, t)
			return
		}
		for m := range t {
			d.allocBuf[m] = nf * t[m]
		}
		for m := range t {
			z[m] = d.proxScalar(term, vbeta, total, nf, m, t[m], rho)
			d.allocBuf[m] = nf * t[m] // restore for the next coordinate
		}
	}
}

func (d *decomposedScratch) proxScalar(term FairnessTerm, vbeta, total, nf float64, m int, t, rho float64) float64 {
	psi := func(z float64) float64 {
		d.allocBuf[m] = nf * z
		term.PenaltyGrad(d.allocBuf, total, d.gradBuf)
		gm := d.gradBuf[m]
		if math.IsNaN(gm) || math.IsInf(gm, 0) {
			// Outside the penalty's domain (e.g. alpha-fair at non-positive
			// allocation): the penalty pushes toward larger allocations.
			return math.Inf(-1)
		}
		return vbeta*gm + rho*(z-t)
	}
	p0 := psi(t)
	if p0 == 0 {
		return t
	}
	lo, hi := t, t
	step := 1 + math.Abs(t)
	if p0 > 0 {
		lo = t - step
		for it := 0; psi(lo) > 0 && it < 60; it++ {
			step *= 2
			lo = t - step
		}
	} else {
		hi = t + step
		for it := 0; psi(hi) < 0 && it < 60; it++ {
			step *= 2
			hi = t + step
		}
	}
	for it := 0; it < 80; it++ {
		mid := 0.5 * (lo + hi)
		if psi(mid) > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi)
}

// solveDecomposedQuadratic is the beta > 0 decomposed slot solve; see the
// file comment for the architecture.
func (g *GreFar) solveDecomposedQuadratic(st *model.State, act *model.Action, stats *telemetry.SolveStats) error {
	c, ws := g.cluster, g.ws
	sp, d := ws.sparse, ws.dec
	n, m := c.N(), c.M()
	vbeta := g.cfg.V * g.cfg.Beta
	total := st.TotalResource(c)
	sp.ensureObjective(g.cfg, total)

	if d.gen != sp.gen {
		// The index moved: rebuild the block structures. The duals live in
		// account space and survive — only the variable mapping changed.
		d.rebuildSites(sp)
		d.gen = sp.gen
	}
	d.shw.Resize(n, m)
	d.refreshValues(sp)

	// Block iterates are derived state: every Decide re-seeds them from the
	// repaired dense warm iterate (zeroed on fallback), so restoring
	// SchedulerState alone reproduces the decision stream exactly.
	outcome := warmFallback
	if ws.warmValid {
		outcome = sp.repairWarm(st, ws.warm)
	}
	warm := g.warmStart(outcome)
	for i := 0; i < n; i++ {
		ds := &d.sites[i]
		for s := 0; s < ds.nh; s++ {
			ds.x[s] = ws.warm[sp.denseIdx[sp.siteOff[i]+s]]
		}
		for k := 0; k < ds.nb; k++ {
			ds.x[ds.nh+k] = ws.warm[sp.l.bOff[i]+k]
		}
		ds.computeContrib()
		d.oracles[i] = ds.oracle(c, st, i, &d.scr[i])
	}

	blockSolve := func(i int, v []float64, rho float64, _ []float64) error {
		ds := &d.sites[i]
		half := rho / 2
		for qi := range ds.obj.Squares {
			sq := &ds.obj.Squares[qi]
			sq.Weight = half
			sq.Offset = -v[ds.sqAcct[qi]]
		}
		res, err := solve.FrankWolfeWS(&ds.fw, &ds.obj, d.oracles[i], ds.x, decomposedFWOptions)
		if err != nil {
			return fmt.Errorf("data center %d block: %w", i, err)
		}
		copy(ds.x, res.X)
		ds.computeContrib()
		return nil
	}
	par := func(nTasks int, f func(i int) error) error {
		workers := g.cfg.SolverWorkers
		if workers <= 1 {
			for i := 0; i < nTasks; i++ {
				if err := f(i); err != nil {
					return err
				}
			}
			return nil
		}
		return runner.Do(context.Background(), workers, nTasks, func(_ context.Context, i int) error {
			return f(i)
		})
	}
	shOpts := solve.SharingOptions{
		Rho:      decomposedRho(vbeta, n, total),
		Adaptive: true,
	}
	prox := d.proxFor(g.cfg.Fairness, vbeta, total, n)
	shRes, err := solve.SharingADMM(n, m, &d.shw, blockSolve, prox, d.contribs, par, shOpts)
	if err != nil {
		return err
	}

	// Polish: away-step Frank-Wolfe on the compact monolithic objective,
	// seeded with the concatenated (feasible) block iterate.
	d.xfull = resizeFloats(d.xfull, sp.total)
	for i := 0; i < n; i++ {
		ds := &d.sites[i]
		copy(d.xfull[sp.siteOff[i]:sp.siteOff[i+1]], ds.x[:ds.nh])
		copy(d.xfull[sp.bOffC[i]:sp.bOffC[i]+ds.nb], ds.x[ds.nh:])
	}
	opts := g.cfg.FW
	if opts.MaxIters <= 0 {
		opts.MaxIters = 150
	}
	res, err := solve.FrankWolfeWS(&ws.fw, sp.wrapped, sp.oracle(st), d.xfull, opts)
	if err != nil {
		return fmt.Errorf("frank-wolfe polish: %w", err)
	}
	// Keep the final compact iterate in the scratch (res.X aliases the shared
	// FW workspace): SolveSlotDecomposed reads it back out after Decide-level
	// helpers have run.
	copy(d.xfull, res.X)
	sp.scatterWarm(res.X, ws.warm)
	ws.warmValid = true
	if stats != nil {
		*stats = telemetry.SolveStats{
			Solver:     telemetry.SolverDecomposed,
			Iterations: res.Iters,
			Outer:      shRes.Iters,
			Converged:  res.Converged,
			Residual:   res.Gap,
		}
		g.attachWarmStats(stats, warm)
		g.attachSolverOptions(stats, opts)
	}
	sp.clampProcess(res.X, act)
	return nil
}

// SolveSlotDecomposed runs the decomposed slot solver standalone on one
// slot's inputs and returns the (h, b) solution in dense slotLayout order —
// the differential harness's entry point for cross-checking the decomposed
// path against the monolithic solvers. The cluster must satisfy the
// decomposed solver's requirements (no auxiliary resources, linear or absent
// tariff); cfg.Solver and cfg.Observer are overridden.
func SolveSlotDecomposed(c *model.Cluster, cfg Config, st *model.State, q queue.Lengths) ([]float64, error) {
	cfg.Solver = SolverDecomposed
	cfg.Observer = nil
	// Standalone solves are certificates, not slot decisions: default the
	// polish to the same budget the differential harness gives its reference
	// solvers, so the comparison measures correctness rather than truncation.
	if cfg.FW.MaxIters == 0 {
		cfg.FW.MaxIters = 4000
	}
	if cfg.FW.Tol == 0 {
		cfg.FW.Tol = 1e-10
	}
	g, err := New(c, cfg)
	if err != nil {
		return nil, err
	}
	sp := g.ws.sparse
	sp.refresh(g.cfg, st, q, nil)
	act := model.NewAction(c)
	x := make([]float64, sp.l.total)
	if g.linearSlot() {
		if err := g.solveSparseLinear(st, act, nil); err != nil {
			return nil, err
		}
		sp.scatterWarm(sp.vertex, x)
		return x, nil
	}
	if err := g.solveDecomposedQuadratic(st, act, nil); err != nil {
		return nil, err
	}
	sp.scatterWarm(g.ws.dec.xfull, x)
	return x, nil
}
