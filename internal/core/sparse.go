package core

import (
	"fmt"
	"math"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/solve"
	"grefar/internal/telemetry"
)

// This file implements the compact slot representation — what SolverAuto
// runs on whenever the inputs allow it, and what SolverSparse and
// SolverDecomposed insist on: an active-pair index over the (i, j)
// processing variables that skips every pair with zero backlog and
// zero warm-start mass, threaded through the coefficient build, the
// objective/gradient, the greedy oracle, and the Frank-Wolfe workspace. At
// production scale most pairs are inactive — a job type's data lives at a
// handful of sites and most queues are empty — so the dense N*J vectors the
// monolithic path iterates over are mostly exact zeros. The compact layout
// makes every solver pass O(active) instead of O(N*J) — and the passes that
// maintain the index itself O(eligible pairs), the size (14) actually has —
// while producing bit-identical iterates: an inactive pair has x = v = dir = 0 on the dense
// path, contributing exactly +0.0 to every inner product, and the compact
// index preserves the dense (i, j) lexicographic order, so the fairness
// account sums, the greedy candidate lists, and the line-search scalars all
// come out float-for-float equal.

// sparseSlot is the active-pair slot representation owned by one scheduler.
// Pair (i, j) is active when j is eligible at i and the pair has positive
// local backlog or positive warm-start mass; only active pairs get compact h
// variables. The b variables are never sparsified — server-type counts are
// small and every site provisions.
type sparseSlot struct {
	c *model.Cluster
	l slotLayout

	// Cluster-static eligibility as a per-site CSR list: the job types that
	// may run at site i are eligJ[eligOff[i]:eligOff[i+1]], ascending — the
	// dense (i, j) scan order restricted to the pairs (14) has a variable for.
	// Every pass that used to walk all N*J cells walks this instead: a pair
	// outside it is never active and never carries warm-start mass
	// (RestoreState rejects an iterate that would put some there).
	eligOff []int // len N+1
	eligJ   []int

	// Active-pair index. Compact h variable t covers the dense pair
	// denseIdx[t] = i*J+j with job type pairJ[t]; a site's compact h
	// variables are the contiguous run [siteOff[i], siteOff[i+1]), in
	// ascending j — the dense lexicographic order restricted to the index.
	active   []bool // dense membership mask, len N*J
	pairJ    []int
	denseIdx []int
	siteOff  []int // len N+1
	bOffC    []int // bOffC[i] is the first compact b index of site i
	nH       int   // compact h count
	total    int   // nH + sum_i K(i)
	gen      int   // bumped on every index rebuild (consumers re-derive)

	// Compact slot coefficients: linear is [cH | cB] in compact layout
	// (cH[t] = -q for the pair, cB = V*phi*p as in slotCoefficientsInto);
	// hCap[t] is the pair's processing cap.
	linear []float64
	hCap   []float64

	// Compact fairness maps: account/demand per compact h variable.
	account []int
	demand  []float64

	// Compact convex objective over the compact layout (beta > 0).
	obj     *slotObjective
	wrapped solve.Objective

	// Inputs backing the incremental refresh: between ticks only queue
	// contents and prices move, so only rows whose inputs moved are
	// recomputed, and the index itself is rebuilt only when the active
	// membership changes.
	prevLocal []float64 // backlog per compact h variable
	prevPrice []float64
	prevValid bool

	// Refresh counters: full index rebuilds vs in-place site-row refreshes.
	rebuilds, rowRefreshes int

	// Solver buffers in compact layout: xw is the Frank-Wolfe starting point
	// gathered from the dense warm buffer.
	xw, vertex []float64
	scr        siteScratch
}

// siteScratch holds one site's greedy-exchange buffers. The decomposed
// solver keeps one per site so pooled block solves never share state.
type siteScratch struct {
	segs []segment
	jobs []jobDemand
}

func newSparseSlot(c *model.Cluster) *sparseSlot {
	nJ := c.N() * c.J()
	sp := &sparseSlot{
		c:         c,
		l:         newSlotLayout(c),
		eligOff:   make([]int, c.N()+1),
		active:    make([]bool, nJ),
		siteOff:   make([]int, 0, c.N()+1),
		bOffC:     make([]int, c.N()),
		prevPrice: make([]float64, c.N()),
	}
	// Counting sort of the (site, type) pairs by site: walking the job types
	// in ascending j leaves every site's row ascending whatever order the
	// Eligible lists are in.
	for _, jt := range c.JobTypes {
		for _, i := range jt.Eligible {
			sp.eligOff[i+1]++
		}
	}
	for i := 0; i < c.N(); i++ {
		sp.eligOff[i+1] += sp.eligOff[i]
	}
	sp.eligJ = make([]int, sp.eligOff[c.N()])
	next := append([]int(nil), sp.eligOff[:c.N()]...)
	for j, jt := range c.JobTypes {
		for _, i := range jt.Eligible {
			sp.eligJ[next[i]] = j
			next[i]++
		}
	}
	sp.scr.segs = make([]segment, 0, maxServerTypes(c))
	sp.scr.jobs = make([]jobDemand, 0, c.J())
	return sp
}

// eligibleAt returns the job types that may run at site i, ascending.
func (sp *sparseSlot) eligibleAt(i int) []int {
	return sp.eligJ[sp.eligOff[i]:sp.eligOff[i+1]]
}

// wantActive is the membership rule for an eligible pair: it carries either
// backlog or warm-start mass (warm nil means no warm iterate is in play).
func wantActive(idx int, q float64, warm []float64) bool {
	return q > 0 || (warm != nil && warm[idx] > 0)
}

// refresh brings the compact representation up to date with this slot's
// inputs. If the active membership is unchanged since the previous slot, only
// the coefficient rows whose backing inputs (a pair's backlog, a site's
// price) moved are recomputed in place; otherwise the whole index is rebuilt.
// In-place refreshed values are computed by the same expressions as a
// rebuild, so the two paths are exactly equivalent (FuzzSparseRefresh pins
// this).
func (sp *sparseSlot) refresh(cfg Config, st *model.State, q queue.Lengths, warm []float64) {
	c := sp.c
	n, nJ := c.N(), c.J()
	if !sp.prevValid {
		sp.rebuildIndex(cfg, st, q, warm)
		return
	}
	for i := 0; i < n; i++ {
		row := q.Local[i]
		base := i * nJ
		for _, j := range sp.eligibleAt(i) {
			if wantActive(base+j, row[j], warm) != sp.active[base+j] {
				sp.rebuildIndex(cfg, st, q, warm)
				return
			}
		}
	}
	// Membership unchanged: refresh only the rows whose inputs moved.
	for i := 0; i < n; i++ {
		touched := false
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			qv := q.Local[i][sp.pairJ[t]]
			if qv == sp.prevLocal[t] {
				continue
			}
			sp.prevLocal[t] = qv
			sp.linear[t] = -qv
			sp.hCap[t] = processBudgetFor(&c.JobTypes[sp.pairJ[t]], qv)
			touched = true
		}
		if st.Price[i] != sp.prevPrice[i] {
			sp.prevPrice[i] = st.Price[i]
			b := sp.bOffC[i]
			for k, stype := range c.DataCenters[i].Servers {
				sp.linear[b+k] = cfg.V * st.Price[i] * stype.Power
			}
			touched = true
		}
		if touched {
			sp.rowRefreshes++
		}
	}
}

// rebuildIndex reconstructs the active-pair index and every compact
// coefficient from scratch, and snapshots the inputs for the next
// incremental refresh.
func (sp *sparseSlot) rebuildIndex(cfg Config, st *model.State, q queue.Lengths, warm []float64) {
	c := sp.c
	n, nJ := c.N(), c.J()
	sp.pairJ = sp.pairJ[:0]
	sp.denseIdx = sp.denseIdx[:0]
	sp.siteOff = sp.siteOff[:0]
	for i := 0; i < n; i++ {
		sp.siteOff = append(sp.siteOff, len(sp.pairJ))
		row := q.Local[i]
		base := i * nJ
		for _, j := range sp.eligibleAt(i) {
			idx := base + j
			want := wantActive(idx, row[j], warm)
			sp.active[idx] = want
			if want {
				sp.pairJ = append(sp.pairJ, j)
				sp.denseIdx = append(sp.denseIdx, idx)
			}
		}
	}
	sp.siteOff = append(sp.siteOff, len(sp.pairJ))
	sp.nH = len(sp.pairJ)
	nB := 0
	for i := 0; i < n; i++ {
		sp.bOffC[i] = sp.nH + nB
		nB += c.K(i)
	}
	sp.total = sp.nH + nB

	sp.linear = resizeFloats(sp.linear, sp.total)
	sp.hCap = resizeFloats(sp.hCap, sp.nH)
	sp.account = resizeInts(sp.account, sp.nH)
	sp.demand = resizeFloats(sp.demand, sp.nH)
	sp.prevLocal = resizeFloats(sp.prevLocal, sp.nH)
	for i := 0; i < n; i++ {
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			j := sp.pairJ[t]
			jt := &c.JobTypes[j]
			qv := q.Local[i][j]
			sp.prevLocal[t] = qv
			sp.linear[t] = -qv
			sp.hCap[t] = processBudgetFor(jt, qv)
			sp.account[t] = jt.Account
			sp.demand[t] = jt.Demand
		}
		sp.prevPrice[i] = st.Price[i]
		b := sp.bOffC[i]
		for k, stype := range c.DataCenters[i].Servers {
			sp.linear[b+k] = cfg.V * st.Price[i] * stype.Power
		}
	}
	sp.prevValid = true
	sp.rebuilds++
	sp.gen++
}

// ensureObjective (re)binds the compact convex objective to the current
// index and slot total. The slotObjective struct is reused; only its slice
// headers and totals move.
func (sp *sparseSlot) ensureObjective(cfg Config, total float64) {
	if sp.obj == nil {
		m := sp.c.M()
		sp.obj = &slotObjective{
			vbeta:     cfg.V * cfg.Beta,
			term:      cfg.Fairness,
			m:         m,
			alloc:     make([]float64, m),
			allocGrad: make([]float64, m),
			allocDir:  make([]float64, m),
		}
		sp.wrapped = wrapSlotObjective(sp.obj)
	}
	sp.obj.linear = sp.linear
	sp.obj.nH = sp.nH
	sp.obj.account = sp.account
	sp.obj.demand = sp.demand
	sp.obj.total = total
}

// oracle returns the compact greedy linear-minimization oracle: the same
// per-site exchange as slotOracleWS, restricted to active pairs, writing a
// vertex in compact layout.
func (sp *sparseSlot) oracle(st *model.State) solve.LinearOracle {
	return func(grad, out []float64) {
		for j := range out {
			out[j] = 0
		}
		for i := 0; i < sp.c.N(); i++ {
			sp.greedySite(&sp.scr, st, i, grad, out, true)
		}
	}
}

// greedySite runs one site's greedy exchange over the site's active pairs
// with the compact cost vector cost, adding the chosen vertex into out
// (caller-zeroed, compact layout) and returning the site's objective
// contribution. With clampNegB, negative b costs clamp to zero exactly as in
// slotOracleWS; without it they are an error, mirroring solveLinearSlotWS.
func (sp *sparseSlot) greedySite(scr *siteScratch, st *model.State, i int, cost, out []float64, clampNegB bool) (float64, error) {
	c := sp.c
	segs := scr.segs[:0]
	for k, stype := range c.DataCenters[i].Servers {
		cb := cost[sp.bOffC[i]+k]
		if cb < 0 {
			if !clampNegB {
				return 0, fmt.Errorf("data center %d server type %d: negative capacity cost %v", i, k, cb)
			}
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
	for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
		if cost[t] >= 0 || sp.hCap[t] <= 0 {
			continue
		}
		d := sp.demand[t]
		jobs = append(jobs, jobDemand{
			job:     t,
			work:    sp.hCap[t] * d,
			density: -cost[t] / d,
			demand:  d,
		})
	}
	scr.segs, scr.jobs = segs, jobs
	return greedyExchange(segs, jobs, out, out[sp.bOffC[i]:], 0), nil
}

// repairWarm is repairWarmStart for the sparse path: it repairs the dense
// warm vector in place against the compact caps without materializing a
// dense hCap matrix, walking eligible pairs only — an ineligible pair holds
// an exact zero and needs neither the finite check nor the clamp. An
// inactive pair's cap is zero, so any mass there clamps away; the
// capacity-row sums skip inactive pairs, whose terms are exact zeros, and
// therefore match the dense sums float-for-float. The outcome classification
// is identical to repairWarmStart on the dense coefficients. Auxiliary rows
// are absent by construction: New rejects the sparse solvers on clusters
// with auxiliary resources.
func (sp *sparseSlot) repairWarm(st *model.State, x []float64) warmOutcome {
	c := sp.c
	n, nJ := c.N(), c.J()
	repaired := false
	for i := 0; i < n; i++ {
		base := i * nJ
		for _, j := range sp.eligibleAt(i) {
			idx := base + j
			v := x[idx]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return warmFallback
			}
			if sp.active[idx] {
				continue // clamped against the compact cap below
			}
			if v != 0 { // cap is 0 off the active index
				x[idx] = 0
				repaired = true
			}
		}
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			idx := sp.denseIdx[t]
			v := x[idx]
			w := v
			if w < 0 {
				w = 0
			}
			if cap := sp.hCap[t]; w > cap {
				w = cap
			}
			if w != v {
				x[idx] = w
				repaired = true
			}
		}
		for k := 0; k < c.K(i); k++ {
			idx := sp.l.bOff[i] + k
			v := x[idx]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return warmFallback
			}
			w := v
			if w < 0 {
				w = 0
			}
			if avail := st.Avail[i][k]; w > avail {
				w = avail
			}
			if w != v {
				x[idx] = w
				repaired = true
			}
		}

		// Capacity row (eq. 11) over active pairs; inactive pairs are exact
		// zeros after the clamp above.
		work := 0.0
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			work += sp.demand[t] * x[sp.denseIdx[t]]
		}
		capWork := 0.0
		for k, stype := range c.DataCenters[i].Servers {
			capWork += stype.Speed * x[sp.l.bOff[i]+k]
		}
		if work > capWork*(1+warmFeasEps) {
			if capWork < warmCollapseScale*work {
				return warmFallback
			}
			scale := capWork / work
			for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
				x[sp.denseIdx[t]] *= scale
			}
			repaired = true
		}
	}
	if repaired {
		return warmRepaired
	}
	return warmHit
}

// gather copies the dense (h, b) vector x into the compact vector out.
func (sp *sparseSlot) gather(x, out []float64) {
	for t := 0; t < sp.nH; t++ {
		out[t] = x[sp.denseIdx[t]]
	}
	for i := 0; i < sp.c.N(); i++ {
		copy(out[sp.bOffC[i]:sp.bOffC[i]+sp.c.K(i)], x[sp.l.bOff[i]:sp.l.bOff[i]+sp.c.K(i)])
	}
}

// scatterWarm writes the compact iterate x back into the dense warm buffer,
// zeroing the eligible pairs of the h block first (the others never leave
// zero): the dense path keeps exact zeros on inactive pairs, so
// zero-then-scatter reproduces its buffer exactly.
func (sp *sparseSlot) scatterWarm(x, warm []float64) {
	nJ := sp.c.J()
	for i := 0; i < sp.c.N(); i++ {
		base := i * nJ
		for _, j := range sp.eligibleAt(i) {
			warm[base+j] = 0
		}
	}
	for t := 0; t < sp.nH; t++ {
		warm[sp.denseIdx[t]] = x[t]
	}
	for i := 0; i < sp.c.N(); i++ {
		copy(warm[sp.l.bOff[i]:sp.l.bOff[i]+sp.c.K(i)], x[sp.bOffC[i]:sp.bOffC[i]+sp.c.K(i)])
	}
}

// decideProcessingSparse is decideProcessing on the sparse representation:
// refresh the active-pair index incrementally, solve on the compact layout
// (greedy for linear slots, compact Frank-Wolfe for SolverSparse, the
// sharing-ADMM block decomposition for SolverDecomposed), scatter the
// clamped h into the action, and provision exactly as the dense path does.
func (g *GreFar) decideProcessingSparse(st *model.State, q queue.Lengths, act *model.Action, stats *telemetry.SolveStats) error {
	c, ws := g.cluster, g.ws
	sp := ws.sparse
	var warmRef []float64
	if ws.warmValid {
		warmRef = ws.warm
	}
	sp.refresh(g.cfg, st, q, warmRef)

	var err error
	switch {
	case g.linearSlot():
		err = g.solveSparseLinear(st, act, stats)
	case g.cfg.Solver == SolverDecomposed:
		err = g.solveDecomposedQuadratic(st, act, stats)
	default:
		err = g.solveSparseQuadratic(st, act, stats)
	}
	if err != nil {
		return err
	}

	for i := 0; i < c.N(); i++ {
		// act.WorkAt(c, i) over the site's active pairs: the action processes
		// nothing anywhere else, and a zero term changes no bit of the sum.
		work := 0.0
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			work += act.Process[i][sp.pairJ[t]] * sp.demand[t]
		}
		if _, err := model.ProvisionOrdered(c.DataCenters[i], ws.provOrder[i], st.Avail[i], act.Busy[i], work); err != nil {
			return fmt.Errorf("data center %d: %w", i, err)
		}
	}
	return nil
}

// solveSparseLinear is the beta = 0 slot solve on the compact layout: the
// per-site greedy exchange over active pairs, site by site — or pooled on
// the runner when the decomposed solver is configured with workers, with
// per-site scratch and disjoint output ranges, so the result is
// bit-identical at any worker count.
func (g *GreFar) solveSparseLinear(st *model.State, act *model.Action, stats *telemetry.SolveStats) error {
	c, ws := g.cluster, g.ws
	sp := ws.sparse
	sp.vertex = resizeFloats(sp.vertex, sp.total)
	for j := range sp.vertex {
		sp.vertex[j] = 0
	}
	solver := telemetry.SolverGreedy
	workers := 1
	if g.cfg.Solver == SolverDecomposed {
		solver = telemetry.SolverDecomposed
		workers = g.cfg.SolverWorkers
	}
	if workers > 1 {
		if err := ws.dec.parallelSites(sp, workers, func(i int, scr *siteScratch) error {
			_, err := sp.greedySite(scr, st, i, sp.linear, sp.vertex, false)
			return err
		}); err != nil {
			return err
		}
	} else {
		for i := 0; i < c.N(); i++ {
			if _, err := sp.greedySite(&sp.scr, st, i, sp.linear, sp.vertex, false); err != nil {
				return err
			}
		}
	}
	for i := 0; i < c.N(); i++ {
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			act.Process[i][sp.pairJ[t]] = sp.vertex[t]
		}
	}
	if stats != nil {
		*stats = telemetry.SolveStats{Solver: solver, Iterations: 1, Converged: true}
		// The dense linear path never reports options, and Auto must read
		// exactly like it.
		if g.cfg.Solver != SolverAuto {
			g.attachSolverOptions(stats, g.cfg.FW)
		}
	}
	return nil
}

// solveSparseQuadratic is solveQuadraticSlot on the compact layout: same
// Frank-Wolfe machinery, same warm-start protocol against the canonical
// dense warm buffer, bit-identical iterates (see the file comment).
func (g *GreFar) solveSparseQuadratic(st *model.State, act *model.Action, stats *telemetry.SolveStats) error {
	c, ws := g.cluster, g.ws
	sp := ws.sparse
	sp.ensureObjective(g.cfg, st.TotalResource(c))
	oracle := sp.oracle(st)

	opts := g.cfg.FW
	if opts.MaxIters <= 0 {
		opts.MaxIters = 150
	}

	outcome := warmFallback
	if ws.warmValid {
		outcome = sp.repairWarm(st, ws.warm)
	}
	warm := g.warmStart(outcome)
	sp.xw = resizeFloats(sp.xw, sp.total)
	sp.gather(ws.warm, sp.xw)
	res, err := solve.FrankWolfeWS(&ws.fw, sp.wrapped, oracle, sp.xw, opts)
	if err != nil {
		return fmt.Errorf("frank-wolfe: %w", err)
	}
	sp.scatterWarm(res.X, ws.warm)
	ws.warmValid = true
	if stats != nil {
		*stats = telemetry.SolveStats{
			Solver:     telemetry.SolverFrankWolfe,
			Iterations: res.Iters,
			Converged:  res.Converged,
			Residual:   res.Gap,
		}
		g.attachWarmStats(stats, warm)
		g.attachSolverOptions(stats, opts)
	}
	sp.clampProcess(res.X, act)
	return nil
}

// clampProcess scatters the compact iterate's h block into the action,
// clamped into [0, hCap] exactly as the dense path clamps its result.
func (sp *sparseSlot) clampProcess(x []float64, act *model.Action) {
	for i := 0; i < sp.c.N(); i++ {
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			h := x[t]
			if h < 0 {
				h = 0
			}
			if cap := sp.hCap[t]; h > cap {
				h = cap
			}
			act.Process[i][sp.pairJ[t]] = h
		}
	}
}

// attachWarmStats fills the warm-start telemetry fields of a convex slot.
func (g *GreFar) attachWarmStats(stats *telemetry.SolveStats, warm string) {
	stats.Warm = warm
	stats.WarmHits = g.warmHits
	stats.WarmRepairs = g.warmRepairs
	stats.WarmFallbacks = g.warmFallbacks
}

// attachSolverOptions attaches the effective solver options to the first
// telemetry event of a non-default-configured scheduler (same latch as the
// dense path).
func (g *GreFar) attachSolverOptions(stats *telemetry.SolveStats, opts solve.FWOptions) {
	if !g.reportOpts || g.optsReported {
		return
	}
	stats.Options = &telemetry.SolverOptions{MaxIters: opts.MaxIters, Tol: opts.Tol}
	if g.cfg.Solver != SolverAuto {
		stats.Options.Solver = g.cfg.Solver.String()
	}
	if g.cfg.SolverWorkers != 0 {
		stats.Options.Workers = g.cfg.SolverWorkers
	}
	g.optsReported = true
}

// resizeFloats returns s with length n, reusing capacity; contents are
// unspecified and must be overwritten by the caller.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// resizeInts is resizeFloats for int slices.
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
