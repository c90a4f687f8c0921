package core

import (
	"slices"

	"grefar/internal/model"
	"grefar/internal/solve"
)

// decideScratch is the reusable per-scheduler workspace of the Decide hot
// path. Every slot decision needs the same fixed-size buffers — the linear
// slot coefficients, the routing order, the greedy exchange's segment and
// demand lists, and (when beta > 0) the flat variable vectors of the convex
// solver — and a 2000-slot sweep calls Decide 2000 times, so allocating them
// fresh each slot dominated the allocation profile (see
// BenchmarkSlotDecision). The workspace is allocated once in New, sized by
// the cluster, and owned exclusively by its GreFar instance: Decide is
// therefore NOT safe for concurrent calls on one scheduler. Parallel sweeps
// (internal/runner) construct one scheduler per run, which keeps every
// workspace single-owner; the repo-wide -race run verifies this.
//
// Ownership rule for buffers handed outward: the returned *model.Action is
// act, allocated by the first Decide and cleared and rewritten by every later
// one, so it is valid until the scheduler's next Decide (sched.Scheduler
// states the rule; a caller that keeps an action longer keeps a Clone).
// Telemetry events and their slices are allocated fresh per call. Everything
// else here is solver-internal state whose lifetime ends when Decide returns.
type decideScratch struct {
	act *model.Action

	// Routing (decideRouting): routeSites[j] is job type j's eligible set in
	// ascending site order — cluster-static; the Eligible list itself when it
	// is already sorted — and order the candidate buffer.
	routeSites [][]int
	order      []routeSite

	// Cheapest-first server order per data center for busy-server
	// provisioning: availability changes per slot but the energy-per-work
	// rate of a server type does not, so the order is cluster-static.
	provOrder [][]int

	// The slot's compact active-pair representation (sparse.go): its
	// coefficients, index, objective and greedy buffers.
	sparse *sparseSlot
	fw     solve.FWWorkspace

	// Cross-slot warm start: warm holds the previous slot's (h, b) iterate
	// in slotLayout order, and warmValid reports whether it exists (false
	// before the first solve). The buffer follows the workspace's
	// single-owner rule — it is this scheduler's memory of its own
	// trajectory, so sharing a scheduler across runs would leak one run's
	// iterate into another; one scheduler per run keeps it sound. Decide
	// repairs the iterate against the current slot's caps and zeroes it when
	// repair fails (see GreFar.warmStart). It stays in the dense layout, not
	// the compact one, because that is what SchedulerState carries: every
	// checkpoint ever written restores. Only a configuration that can reach
	// the convex path has one: a linear-slot scheduler exports no warm state.
	warm      []float64
	warmValid bool
}

// newDecideScratch builds the workspace for one scheduler. The warm buffer
// is allocated only when quad is set (beta > 0 or a non-linear tariff can
// reach Frank-Wolfe); no configuration gets an N*J coefficient, gradient or
// greedy matrix.
func newDecideScratch(c *model.Cluster, quad bool) *decideScratch {
	ws := &decideScratch{
		order:  make([]routeSite, 0, c.N()),
		sparse: newSparseSlot(c),
	}
	ws.provOrder = make([][]int, c.N())
	for i := 0; i < c.N(); i++ {
		ws.provOrder[i] = model.RateOrder(c.DataCenters[i])
	}
	ws.routeSites = make([][]int, c.J())
	for j := range c.JobTypes {
		sites := c.JobTypes[j].Eligible
		if !slices.IsSorted(sites) {
			sites = slices.Clone(sites)
			slices.Sort(sites)
		}
		ws.routeSites[j] = sites
	}
	if quad {
		ws.warm = make([]float64, ws.sparse.l.total)
	}
	return ws
}

// newMatrixNJ builds an N x J matrix backed by one flat allocation.
func newMatrixNJ(c *model.Cluster) [][]float64 {
	flat := make([]float64, c.N()*c.J())
	m := make([][]float64, c.N())
	for i := range m {
		m[i] = flat[i*c.J() : (i+1)*c.J() : (i+1)*c.J()]
	}
	return m
}

// newMatrixNK builds the ragged N x K(i) matrix backed by one flat
// allocation.
func newMatrixNK(c *model.Cluster) [][]float64 {
	total := 0
	for i := 0; i < c.N(); i++ {
		total += c.K(i)
	}
	flat := make([]float64, total)
	m := make([][]float64, c.N())
	off := 0
	for i := range m {
		m[i] = flat[off : off+c.K(i) : off+c.K(i)]
		off += c.K(i)
	}
	return m
}

func maxServerTypes(c *model.Cluster) int {
	max := 0
	for i := 0; i < c.N(); i++ {
		if k := c.K(i); k > max {
			max = k
		}
	}
	return max
}
