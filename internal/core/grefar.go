package core

import (
	"fmt"

	"grefar/internal/fairness"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/solve"
	"grefar/internal/tariff"
	"grefar/internal/telemetry"
)

// Config carries GreFar's two control knobs (paper section IV-B).
type Config struct {
	// V >= 0 is the cost-delay parameter: larger V weighs the
	// energy-fairness cost more heavily against queue drift, reducing cost
	// at the expense of O(V) queue backlog (Theorem 1).
	V float64
	// Beta >= 0 is the energy-fairness parameter: 0 ignores fairness
	// entirely; large values prioritize fairness over energy cost.
	Beta float64
	// Fairness selects the fairness function whose penalty enters the slot
	// objective (paper footnote 5 allows any). Nil selects the paper's
	// quadratic deviation function (eq. 3) with the cluster's account
	// weights.
	Fairness FairnessTerm
	// Tariff maps each site's energy draw to cost (paper section III-A2
	// allows increasing convex functions). Nil selects the paper's baseline
	// linear pricing cost = phi * energy, for which the closed-form greedy
	// slot solver applies.
	Tariff tariff.Tariff
	// FW tunes the Frank-Wolfe solver used when Beta > 0. Zero values select
	// defaults; invalid values (negative MaxIters, NaN or negative Tol) are
	// rejected at New with ErrBadConfig.
	FW solve.FWOptions
	// WarmStart is read by nothing: every convex slot solve (Beta > 0) starts
	// from the previous slot's iterate, repaired against the current slot's
	// caps, and from zero only on the first slot or when the repair fails.
	//
	// Deprecated: ignored; kept so existing Config literals compile.
	WarmStart bool
	// Routing selects how routing ties are broken (sites with equal local
	// backlog have identical coefficients in (14), so the minimizer is not
	// unique). The default SplitTies emulates the uncapped paper algorithm,
	// which routes r_max to every tied site; FirstSiteWins is the naive
	// alternative kept for the DESIGN.md ablation.
	Routing RoutingRule
	// Observer, when non-nil, receives one telemetry.SlotEvent per Decide
	// call (origin "decide") carrying the backlog snapshot, the drift and
	// V*g(t) penalty decomposition of the chosen action, and solver
	// statistics. Nil costs nothing on the decision path.
	Observer telemetry.SlotObserver
	// Solver named a slot-solver representation when there were several.
	// Decide runs on the compact active-pair layout (see sparse.go) whatever
	// the field holds.
	//
	// Deprecated: ignored; kept so existing Config literals compile.
	Solver SolverKind
}

// SolverKind named a slot-solver representation (Config.Solver). There is
// one representation now, so every value, named or not, selects it.
//
// Deprecated: ignored; kept so code that names the kinds (the frozen
// benchmark's solver probe) still compiles.
type SolverKind int

// The slot-solver kinds Config.Solver once chose between.
//
// Deprecated: ignored, like Config.Solver.
const (
	SolverAuto SolverKind = iota
	SolverMonolithic
	SolverSparse
	SolverDecomposed
)

// ApplyScheduler replaces the whole configuration with c, making a Config
// literal usable wherever a scheduler option is accepted. This is the
// compatibility bridge for the pre-options construction style
// (grefar.New(cluster, grefar.Config{...})): a Config used as an option
// resets every knob, so combine it with finer-grained options only before
// them, not after.
//
// Deprecated: pass functional options (WithV, WithBeta, WithTariff, ...)
// instead of a positional Config literal; the struct form remains supported
// but new knobs will only get option constructors.
func (c Config) ApplyScheduler(dst *Config) { *dst = c }

// RoutingRule selects the tie-breaking behavior of the routing step.
type RoutingRule int

const (
	// SplitTies divides the available jobs evenly across sites whose
	// backlogs tie (the default, matching the uncapped paper algorithm).
	SplitTies RoutingRule = iota
	// FirstSiteWins gives the whole remaining budget to the lowest-index
	// site of a tie group. At small V this hides expensive sites by
	// accident of ordering; the ablation quantifies the distortion.
	FirstSiteWins
)

// GreFar is the paper's online scheduling algorithm. It implements
// sched.Scheduler using only per-slot observable information: no statistics
// of arrivals, prices, or availability are ever used.
type GreFar struct {
	cluster *model.Cluster
	cfg     Config
	weights []float64 // account target shares gamma_m

	// ws is the per-scheduler solver workspace. Its single-owner rule makes
	// Decide NOT safe for concurrent calls on one GreFar instance; parallel
	// sweeps must construct one scheduler per run (see decideScratch).
	ws *decideScratch

	// Warm-start outcome counters, cumulative over the scheduler's lifetime
	// and surfaced in every convex slot's SolveStats.
	warmHits, warmRepairs, warmFallbacks int

	// reportOpts marks a scheduler whose solver options depart from the
	// defaults; the effective options are then attached to its first
	// telemetry event (optsReported latches). Default-configured schedulers
	// never attach them, keeping their event streams byte-identical to
	// pre-option traces.
	reportOpts   bool
	optsReported bool
}

var _ sched.Scheduler = (*GreFar)(nil)

// New builds a GreFar scheduler for the cluster. A malformed cluster yields
// an error wrapping model.ErrInvalidCluster; a bad knob yields one wrapping
// ErrBadConfig.
func New(c *model.Cluster, cfg Config) (*GreFar, error) {
	if c == nil {
		return nil, fmt.Errorf("%w: nil cluster", model.ErrInvalidCluster)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if cfg.V < 0 {
		return nil, fmt.Errorf("%w: cost-delay parameter V = %v is negative", ErrBadConfig, cfg.V)
	}
	if cfg.Beta < 0 {
		return nil, fmt.Errorf("%w: energy-fairness parameter beta = %v is negative", ErrBadConfig, cfg.Beta)
	}
	if err := cfg.FW.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	weights := make([]float64, c.M())
	for m, a := range c.Accounts {
		weights[m] = a.Weight
	}
	if cfg.Fairness == nil {
		quad, err := fairness.NewQuadratic(weights)
		if err != nil {
			return nil, err
		}
		cfg.Fairness = quad
	}
	g := &GreFar{cluster: c, cfg: cfg, weights: weights}
	g.ws = newDecideScratch(c, !g.linearSlot())
	g.reportOpts = cfg.FW != (solve.FWOptions{})
	return g, nil
}

// Name implements sched.Scheduler.
func (g *GreFar) Name() string {
	return fmt.Sprintf("grefar(V=%g,beta=%g)", g.cfg.V, g.cfg.Beta)
}

// Decide implements sched.Scheduler: it minimizes the drift-plus-penalty
// expression (14) for slot t. The returned action is the scheduler's own,
// cleared and rewritten in place by every call: it is valid until the next
// Decide, and a caller that keeps it longer keeps a Clone.
func (g *GreFar) Decide(t int, st *model.State, q queue.Lengths) (*model.Action, error) {
	act := g.ws.act
	if act == nil {
		// Allocated on first use: building a scheduler stays cheap.
		act = model.NewAction(g.cluster)
		g.ws.act = act
	} else {
		for i := range act.Route {
			clear(act.Route[i])
			clear(act.Process[i])
			clear(act.Busy[i])
		}
	}
	g.decideRouting(q, act)
	var stats *telemetry.SolveStats
	if g.cfg.Observer != nil {
		stats = &telemetry.SolveStats{}
	}
	if err := g.decideProcessing(st, q, act, stats); err != nil {
		return nil, err
	}
	if g.cfg.Observer != nil {
		ev := g.slotEvent(t, st, q, act, stats)
		if telemetry.WantsDetail(g.cfg.Observer) {
			ev.Detail = &telemetry.SlotDetail{
				State:  st.Clone(),
				Action: act.Clone(),
				Pre:    q.Clone(),
			}
		}
		g.cfg.Observer.ObserveSlot(ev)
	}
	return act, nil
}

// slotEvent assembles the origin-"decide" telemetry event for the chosen
// action: the pre-decision backlog snapshot, the drift and penalty
// components whose sum is the drift-plus-penalty value (14) the decision
// minimizes, and the solver statistics collected by decideProcessing.
func (g *GreFar) slotEvent(t int, st *model.State, q queue.Lengths, act *model.Action, stats *telemetry.SolveStats) telemetry.SlotEvent {
	c := g.cluster
	ev := telemetry.SlotEvent{
		Slot:      t,
		Origin:    telemetry.OriginDecide,
		Scheduler: g.Name(),
		// A scheduler sees the whole cluster, not one site.
		DataCenter: -1,
		Solve:      stats,
	}
	for _, v := range q.Central {
		ev.CentralBacklog += v
	}
	ev.LocalBacklog = make([]float64, c.N())
	for i := range q.Local {
		for _, v := range q.Local[i] {
			ev.LocalBacklog[i] += v
		}
	}
	ev.TotalBacklog = ev.CentralBacklog
	for _, v := range ev.LocalBacklog {
		ev.TotalBacklog += v
	}

	// Penalty = V*g(t) where g = billed energy + beta*P(alloc, total); the
	// fairness term's P equals -f, so this matches eq. 6.
	ev.Energy = act.BilledCost(c, st, g.cfg.Tariff)
	fairPenalty := 0.0
	if g.cfg.Beta != 0 {
		p := g.cfg.Fairness.Penalty(act.AccountWork(c), st.TotalResource(c))
		fairPenalty = g.cfg.Beta * p
		ev.Fairness = -p
	}
	ev.Penalty = g.cfg.V * (ev.Energy + fairPenalty)

	// Drift: the routing and processing queue terms of (14).
	for j := 0; j < c.J(); j++ {
		for _, i := range c.JobTypes[j].Eligible {
			r := float64(act.Route[i][j])
			ev.Drift += q.Local[i][j]*(r-act.Process[i][j]) - q.Central[j]*r
		}
	}
	ev.Objective = ev.Drift + ev.Penalty
	return ev
}

// decideRouting solves the routing part of (14). The routing terms are
//
//	sum_j sum_{i in D_j} (q_{i,j} - Q_j) * r_{i,j},
//
// linear and separable, so the paper's minimizer routes r_max to every
// eligible site whose local backlog is below the central backlog. Because
// this simulator moves real jobs, the total routed per type is additionally
// capped at the central queue content, spent on the most-negative
// coefficients (the least-backlogged sites) first: strictly better
// (smaller-backlog) sites fill first, and sites whose backlogs tie — they
// have identical coefficients in (14), and the uncapped paper algorithm
// routes r_max to each of them — split what is left evenly instead of
// privileging the lowest index.
//
// That consumes the candidates in ascending (backlog, site) order, but only
// until the central queue's content is spent, so nothing is sorted. The
// least-backlogged tie group is found while the candidates are gathered and
// served in one more pass over them; unless a routing bound caps its shares
// it takes everything and the type is done. Only what a bound leaves over
// goes on to the remaining candidates, which are then heapified in place and
// popped one tie group at a time.
func (g *GreFar) decideRouting(q queue.Lengths, act *model.Action) {
	c := g.cluster
	for j := 0; j < c.J(); j++ {
		jt := &c.JobTypes[j]
		qj := q.Central[j]
		available := int(qj)
		if available <= 0 {
			continue
		}
		// Eligible sites with negative routing coefficient, in ascending site
		// order, and the smallest backlog among them with its multiplicity.
		order := g.ws.order[:0]
		tie, ties := 0.0, 0
		for _, i := range g.ws.routeSites[j] {
			b := q.Local[i][j]
			if !(b < qj) {
				continue
			}
			order = append(order, routeSite{backlog: b, site: i})
			switch {
			case ties == 0 || b < tie:
				tie, ties = b, 1
			case b == tie:
				ties++
			}
		}
		if ties == 0 {
			continue
		}
		if g.cfg.Routing == FirstSiteWins {
			ties = 1 // the lowest-index site of the group stands for it
		}
		budget := routeBudgetFor(jt)
		rest, member, remaining := order[:0], 0, available
		for _, rs := range order {
			if rs.backlog != tie {
				rest = append(rest, rs)
				continue
			}
			if member < ties {
				share := tieShare(remaining, ties, member, budget)
				act.Route[rs.site][j] = share
				available -= share
			}
			member++
		}
		if available <= 0 {
			continue
		}
		heapifyRouteSites(rest)
		for heap := rest; len(heap) > 0 && available > 0; {
			// Successive minima land at the shrinking heap's tail, so the
			// popped group reads in descending site order.
			end, tie := len(heap), heap[0].backlog
			for len(heap) > 0 && heap[0].backlog == tie {
				heap = popRouteSite(heap)
			}
			group := rest[len(heap):end]
			if g.cfg.Routing == FirstSiteWins {
				group = group[len(group)-1:]
			}
			remaining := available
			for member := range group {
				share := tieShare(remaining, len(group), member, budget)
				act.Route[group[len(group)-1-member].site][j] = share
				available -= share
			}
		}
	}
}

// tieShare is what member number member (in ascending site order) of a tie
// group of ties sites gets of the remaining jobs: an even split, the
// remainder going one each to the lowest-index members, capped at the
// type's routing bound.
func tieShare(remaining, ties, member, budget int) int {
	share := remaining / ties
	if member < remaining%ties {
		share++
	}
	if share > budget {
		share = budget
	}
	return share
}

// routeSite is one candidate of a job type's routing order: an eligible site
// and its local backlog for that type, kept together so the comparisons read
// adjacent memory instead of chasing q.Local[site][j] through N row slices.
type routeSite struct {
	backlog float64
	site    int
}

// before is the routing order: ascending (backlog, site index). Sites are
// distinct, so it is a strict total order and the sequence of minima the
// heap yields is the one any correct sort would.
func (a routeSite) before(b routeSite) bool {
	return a.backlog < b.backlog || (a.backlog == b.backlog && a.site < b.site)
}

// heapifyRouteSites arranges h as a binary min-heap under before, in place:
// selecting the tie groups a routing bound makes routing go through costs
// O(n + taken*log n), where sorting every candidate first was most of a
// 500-site decision.
func heapifyRouteSites(h []routeSite) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDownRouteSite(h, i)
	}
}

// popRouteSite moves the heap's minimum to h[len(h)-1] and returns the heap
// that remains in front of it.
func popRouteSite(h []routeSite) []routeSite {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	siftDownRouteSite(h[:n], 0)
	return h[:n]
}

func siftDownRouteSite(h []routeSite, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func routeBudgetFor(jt *model.JobType) int {
	if jt.MaxRoute > 0 {
		return jt.MaxRoute
	}
	return 1 << 30
}

// decideProcessing solves the processing part of (14):
//
//	minimize  V*e(t) + V*beta * sum_m (r_m/R - gamma_m)^2 - sum_{i,j} q_{i,j} h_{i,j}
//
// over the capacity polytope (11). With beta = 0 the problem is linear and
// the greedy exchange solves it exactly, realizing the paper's threshold
// rule: process type j at site i only while q_{i,j}/d_j > V * phi_i * p_k/s_k.
// With beta > 0 (or a non-linear tariff) it is convex and solved by
// Frank-Wolfe with the greedy as its linear oracle and exact line search.
// Auxiliary resource rows (footnote 3) swap the greedy for the simplex LP.
//
// Everything runs on the compact active-pair layout (sparse.go): refresh the
// index incrementally, solve, scatter the clamped h into the action, then
// provision the cheapest busy-server mix for the chosen work — optimal given
// h because b enters the objective with non-negative cost. The
// cheapest-first server order is cluster-static, so the precomputed
// ws.provOrder avoids re-sorting every slot.
func (g *GreFar) decideProcessing(st *model.State, q queue.Lengths, act *model.Action, stats *telemetry.SolveStats) error {
	c, ws := g.cluster, g.ws
	sp := ws.sparse
	var warmRef []float64
	if ws.warmValid {
		warmRef = ws.warm
	}
	sp.refresh(g.cfg, st, q, warmRef)

	var err error
	if g.linearSlot() {
		err = g.solveLinear(st, act, stats)
	} else {
		err = g.solveConvex(st, act, stats)
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

func processBudgetFor(jt *model.JobType, queued float64) float64 {
	b := queued
	if jt.MaxProcess > 0 && jt.MaxProcess < b {
		b = jt.MaxProcess
	}
	return b
}

// linearSlot reports whether the slot problem is linear, i.e. exactly
// solvable by the greedy exchange: no fairness term in play and a linear
// (or absent) tariff.
func (g *GreFar) linearSlot() bool {
	if g.cfg.V == 0 {
		return true // cost is irrelevant; greedy processes everything queued
	}
	return g.cfg.Beta == 0 && linearTariff(g.cfg.Tariff)
}

// linearTariff reports whether t bills cost = phi * energy: the paper's
// baseline, under which the energy cost stays in the linear part of (14).
func linearTariff(t tariff.Tariff) bool {
	if t == nil {
		return true
	}
	_, linear := t.(tariff.Linear)
	return linear
}

// warmStart settles this slot's starting point in ws.warm from the repair's
// verdict on the previous slot's iterate (warmFallback when there is none):
// on a hit or repair the iterate stands, on a fallback it is zeroed, a cold
// start. It counts the outcome and returns its telemetry label.
func (g *GreFar) warmStart(outcome warmOutcome) string {
	switch outcome {
	case warmHit:
		g.warmHits++
		return telemetry.WarmHit
	case warmRepaired:
		g.warmRepairs++
		return telemetry.WarmRepaired
	}
	clear(g.ws.warm)
	g.warmFallbacks++
	return telemetry.WarmFallback
}
