package core

import (
	"fmt"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/solve"
	"grefar/internal/telemetry"
)

// This file implements the slot representation Decide runs on: an
// active-pair index over the (i, j) processing variables that skips every pair
// with zero backlog and zero warm-start mass, threaded through the coefficient
// build, the objective/gradient, the greedy oracle, and the Frank-Wolfe
// workspace. At production scale most pairs are inactive — a job type's data
// lives at a handful of sites and most queues are empty — so a dense N*J
// vector would be mostly exact zeros. The compact layout makes every solver
// pass O(active) instead of O(N*J) — and the passes that maintain the index
// itself O(eligible pairs), the size (14) actually has — while producing the
// iterates the dense layout of the reference builders (slotvars.go) would:
// an inactive pair has x = v = dir = 0 there, contributing exactly +0.0 to
// every inner product, and the compact index preserves the dense (i, j)
// lexicographic order, so the fairness account sums, the greedy candidate
// lists, and the line-search scalars come out float-for-float equal. The
// golden streams recorded from the deleted dense decide path pin this.

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
	// (cH[t] = -q for the pair, cB = V*phi*p as in SlotCoefficients, or 0
	// under a non-linear tariff);
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
	// gathered from the dense warm buffer; segs and jobs are one site's
	// greedy-exchange lists.
	xw, vertex []float64
	segs       []segment
	jobs       []jobDemand
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
	sp.segs = make([]segment, 0, maxServerTypes(c))
	sp.jobs = make([]jobDemand, 0, c.J())
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
			sp.priceSite(cfg, st.Price[i], i)
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
		sp.priceSite(cfg, st.Price[i], i)
	}
	sp.prevValid = true
	sp.rebuilds++
	sp.gen++
}

// priceSite writes site i's busy-server coefficients cB = V*phi*p_k for the
// slot price phi. Under a non-linear tariff they are zero: the convex tariff
// term of the objective carries the energy cost instead (attachTariff).
func (sp *sparseSlot) priceSite(cfg Config, phi float64, i int) {
	b := sp.bOffC[i]
	linear := linearTariff(cfg.Tariff)
	for k, stype := range sp.c.DataCenters[i].Servers {
		if linear {
			sp.linear[b+k] = cfg.V * phi * stype.Power
		} else {
			sp.linear[b+k] = 0
		}
	}
}

// ensureObjective (re)binds the compact convex objective to the current
// index and slot state. The slotObjective struct is reused; only its slice
// headers, totals and tariff inputs move.
func (sp *sparseSlot) ensureObjective(cfg Config, st *model.State) {
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
		if !linearTariff(cfg.Tariff) {
			sp.obj.attachTariff(sp.c, st, cfg.Tariff, cfg.V)
		}
		sp.wrapped = wrapSlotObjective(sp.obj)
	} else if sp.obj.trf != nil {
		sp.obj.refreshTariff(sp.c, st)
	}
	sp.obj.linear = sp.linear
	sp.obj.nH = sp.nH
	sp.obj.account = sp.account
	sp.obj.demand = sp.demand
	sp.obj.total = st.TotalResource(sp.c)
}

// oracle returns the compact linear-minimization oracle: the per-site greedy
// exchange over active pairs, or the simplex LP when the cluster has
// auxiliary rows, writing a vertex in compact layout. Negative b costs clamp
// to zero: b only enters the objective with non-negative marginal cost, so a
// negative one is roundoff.
func (sp *sparseSlot) oracle(st *model.State) solve.LinearOracle {
	return func(grad, out []float64) {
		clear(out)
		if sp.c.Aux() > 0 {
			_ = sp.solveAux(st, grad, out, true) // on error: the zero vertex
			return
		}
		for i := 0; i < sp.c.N(); i++ {
			sp.greedySite(st, i, grad, out, true)
		}
	}
}

// solveAux minimizes cost.x over the slot polytope with the footnote-3
// auxiliary rows by the simplex LP, writing the vertex into out (compact
// layout). The LP is the reference builder
// solveSlotLPGeneral, so the compact cost and caps are scattered into dense
// per-call matrices, where a pair off the index has cost and cap zero. With
// clampNegB, negative b costs clamp to zero as in greedySite.
func (sp *sparseSlot) solveAux(st *model.State, cost, out []float64, clampNegB bool) error {
	c := sp.c
	cH, cB, hCap := newMatrixNJ(c), newMatrixNK(c), newMatrixNJ(c)
	for i := 0; i < c.N(); i++ {
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			cH[i][sp.pairJ[t]] = cost[t]
			hCap[i][sp.pairJ[t]] = sp.hCap[t]
		}
		for k := range cB[i] {
			cB[i][k] = cost[sp.bOffC[i]+k]
			if clampNegB && cB[i][k] < 0 {
				cB[i][k] = 0
			}
		}
	}
	process, busy, _, err := solveSlotLPGeneral(c, st, cH, cB, hCap)
	if err != nil {
		return err
	}
	for i := 0; i < c.N(); i++ {
		for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
			out[t] = process[i][sp.pairJ[t]]
		}
		copy(out[sp.bOffC[i]:sp.bOffC[i]+c.K(i)], busy[i])
	}
	return nil
}

// greedySite runs one site's greedy exchange over the site's active pairs
// with the compact cost vector cost, adding the chosen vertex into out
// (caller-zeroed, compact layout). With clampNegB, negative b costs clamp to
// zero exactly as in SlotOracle; without it they are an error, mirroring
// solveLinearSlot.
func (sp *sparseSlot) greedySite(st *model.State, i int, cost, out []float64, clampNegB bool) error {
	c := sp.c
	segs := sp.segs[:0]
	for k, stype := range c.DataCenters[i].Servers {
		cb := cost[sp.bOffC[i]+k]
		if cb < 0 {
			if !clampNegB {
				return fmt.Errorf("data center %d server type %d: negative capacity cost %v", i, k, cb)
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
	jobs := sp.jobs[:0]
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
	sp.segs, sp.jobs = segs, jobs
	greedyExchange(segs, jobs, out, out[sp.bOffC[i]:], 0)
	return nil
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

// solveLinear is the linear slot solve on the compact layout: the
// per-site greedy exchange over active pairs, site by site, or the simplex
// LP when auxiliary rows break the single-constraint greedy.
func (g *GreFar) solveLinear(st *model.State, act *model.Action, stats *telemetry.SolveStats) error {
	c := g.cluster
	sp := g.ws.sparse
	sp.vertex = resizeFloats(sp.vertex, sp.total)
	clear(sp.vertex)
	solver := telemetry.SolverGreedy
	if c.Aux() > 0 {
		solver = telemetry.SolverLP
		if err := sp.solveAux(st, sp.linear, sp.vertex, false); err != nil {
			return err
		}
	} else {
		for i := 0; i < c.N(); i++ {
			if err := sp.greedySite(st, i, sp.linear, sp.vertex, false); err != nil {
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
	}
	return nil
}

// solveConvex is the convex slot solve (beta > 0 or a non-linear
// tariff): Frank-Wolfe over the compact layout, whose fairness penalty
// V*beta*P(alloc(h)) couples job types of the same account across sites.
// With the paper's quadratic fairness (and a tariff of constant curvature)
// it uses exact line search; other convex penalties (alpha-fair) use
// diminishing steps. It starts from the previous slot's iterate — kept in
// the slotLayout order SchedulerState carries — repaired in place against
// this slot's caps, or from zero (see warmStart).
func (g *GreFar) solveConvex(st *model.State, act *model.Action, stats *telemetry.SolveStats) error {
	ws := g.ws
	sp := ws.sparse
	sp.ensureObjective(g.cfg, st)
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
// clamped into [0, hCap].
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
// convex-slot telemetry event of a scheduler with non-default solver knobs.
func (g *GreFar) attachSolverOptions(stats *telemetry.SolveStats, opts solve.FWOptions) {
	if !g.reportOpts || g.optsReported {
		return
	}
	stats.Options = &telemetry.SolverOptions{MaxIters: opts.MaxIters, Tol: opts.Tol}
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
