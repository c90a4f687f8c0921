// Package core implements GreFar, the paper's online drift-plus-penalty
// scheduling algorithm (Algorithm 1). At each slot it observes only the
// current data center state x(t) and queue backlogs Theta(t) and minimizes
//
//	V*g(t) - sum_j Q_j(t) * [sum_{i in D_j} r_{i,j}(t)]
//	       + sum_j sum_{i in D_j} q_{i,j}(t) * [r_{i,j}(t) - h_{i,j}(t)]   (14)
//
// over the feasible actions, where g(t) = e(t) - beta*f(t) is the
// energy-fairness cost. The routing part is linear and separable and is
// solved in closed form; the processing part is solved exactly by a greedy
// exchange when beta = 0 and by Frank-Wolfe (whose linear oracle is that same
// greedy) when beta > 0.
package core

import (
	"fmt"

	"grefar/internal/model"
)

// sortSegsByDensity stable-sorts capacity segments by ascending cost
// density. The greedy runs once per site per slot — and once per Frank-Wolfe
// oracle call — on a handful of server types, so a reflection-free stable
// insertion sort beats sort.Slice by a wide margin while preserving the tied
// ordering sort.Slice produced on short inputs (its small-slice path is the
// same stable insertion sort, and golden traces pin the tie behavior).
func sortSegsByDensity(segs []segment) {
	for a := 1; a < len(segs); a++ {
		for b := a; b > 0 && segs[b].density < segs[b-1].density; b-- {
			segs[b], segs[b-1] = segs[b-1], segs[b]
		}
	}
}

// linearAssignment is the solution of one linear slot subproblem.
type linearAssignment struct {
	process [][]float64 // h_{i,j}
	busy    [][]float64 // b_{i,k}
	value   float64     // objective value achieved
}

// linearScratch holds the buffers of one greedy-exchange slot solve.
type linearScratch struct {
	out  linearAssignment
	segs []segment
	jobs []jobDemand
}

// newLinearScratch sizes a greedy-exchange workspace for the cluster.
func newLinearScratch(c *model.Cluster) *linearScratch {
	ws := &linearScratch{}
	ws.out.process = newMatrixNJ(c)
	ws.out.busy = newMatrixNK(c)
	ws.segs = make([]segment, 0, maxServerTypes(c))
	ws.jobs = make([]jobDemand, 0, c.J())
	return ws
}

// segment is one server-type capacity tranche with a linear activation cost.
type segment struct {
	serverType int
	cap        float64 // work units available
	density    float64 // cost per unit work, cB/s
	speed      float64
}

// jobDemand is one job type's processable work with a linear reward.
type jobDemand struct {
	job     int
	work    float64 // d_j * processable jobs
	density float64 // reward per unit work, -cH/d
	demand  float64
}

// solveLinearSlot minimizes
//
//	sum_{i,j} cH[i][j]*h_{i,j} + sum_{i,k} cB[i][k]*b_{i,k}
//
// subject to the per-data-center capacity coupling (paper eq. 11),
// 0 <= b_{i,k} <= avail[i][k] and 0 <= h_{i,j} <= hCap[i][j]. All cB must be
// non-negative (true for GreFar, where cB = V*phi*p); the problem then
// decomposes per data center and is solved exactly by matching job types in
// decreasing reward density with capacity segments in increasing cost
// density while the exchange is profitable.
//
// It is the dense reference of the compact per-site greedy Decide runs
// (sparseSlot.greedySite): SolveSlotGreedy and SlotOracle are built on it.
func solveLinearSlot(c *model.Cluster, st *model.State, cH, cB, hCap [][]float64) (*linearAssignment, error) {
	return solveLinearSlotWS(newLinearScratch(c), c, st, cH, cB, hCap)
}

// solveLinearSlotWS is solveLinearSlot running entirely inside the given
// workspace: the returned assignment aliases ws.out and is valid only until
// the next call with the same workspace, so SlotOracle's per-iteration
// solves share one.
func solveLinearSlotWS(ws *linearScratch, c *model.Cluster, st *model.State, cH, cB, hCap [][]float64) (*linearAssignment, error) {
	out := &ws.out
	out.value = 0
	for i := 0; i < c.N(); i++ {
		for j := range out.process[i] {
			out.process[i][j] = 0
		}
		for k := range out.busy[i] {
			out.busy[i][k] = 0
		}

		// Capacity segments, sorted by cost density.
		dc := c.DataCenters[i]
		segs := ws.segs[:0]
		for k, stype := range dc.Servers {
			if cB[i][k] < 0 {
				return nil, fmt.Errorf("data center %d server type %d: negative capacity cost %v", i, k, cB[i][k])
			}
			capWork := st.Avail[i][k] * stype.Speed
			if capWork <= 0 {
				continue
			}
			segs = append(segs, segment{
				serverType: k,
				cap:        capWork,
				density:    cB[i][k] / stype.Speed,
				speed:      stype.Speed,
			})
		}
		sortSegsByDensity(segs)

		// Collect the profitable job demands; the exchange picks among them
		// in descending reward density.
		jobs := ws.jobs[:0]
		for j := 0; j < c.J(); j++ {
			if cH[i][j] >= 0 || hCap[i][j] <= 0 {
				continue // processing this type here cannot reduce the objective
			}
			d := c.JobTypes[j].Demand
			jobs = append(jobs, jobDemand{
				job:     j,
				work:    hCap[i][j] * d,
				density: -cH[i][j] / d,
				demand:  d,
			})
		}
		out.value = greedyExchange(segs, jobs, out.process[i], out.busy[i], out.value)
	}
	return out, nil
}

// greedyExchange is the exchange core of every greedy slot solve: the dense
// reference solveLinearSlotWS and the compact sparseSlot.greedySite. It
// matches job demands in descending reward density with capacity segments in
// ascending cost density while the reward strictly exceeds the cost, adding
// each take into h[job] and b[serverType] and its objective change into
// value, which it returns.
//
// segs must be sorted (sortSegsByDensity). jobs is in ascending job order and
// is consumed: the next job is picked only when the exchange needs one, as
// the first of maximal density among those left, which is exactly the order
// a stable descending sort would give. The exchange stops at the first pick
// whose density is at or below the current segment's: every job left is at
// most as profitable, so it could add nothing. A site usually takes one or
// two of its candidates, so picking beats sorting them all. The arithmetic —
// take splitting, the 1e-15 epsilons, the accumulation order — is the sorted
// exchange's, so vertices and values come out bit-identical.
func greedyExchange(segs []segment, jobs []jobDemand, h, b []float64, value float64) float64 {
	seg := 0
	for seg < len(segs) && len(jobs) > 0 {
		best := 0
		for x := 1; x < len(jobs); x++ {
			if jobs[x].density > jobs[best].density {
				best = x
			}
		}
		jd := jobs[best]
		if jd.density <= segs[seg].density {
			break
		}
		jobs = append(jobs[:best], jobs[best+1:]...)
		remaining := jd.work
		for remaining > 1e-15 && seg < len(segs) {
			s := &segs[seg]
			if jd.density <= s.density {
				break // this and all costlier segments are unprofitable
			}
			take := remaining
			if take > s.cap {
				take = s.cap
			}
			h[jd.job] += take / jd.demand
			b[s.serverType] += take / s.speed
			value += take * (s.density - jd.density)
			s.cap -= take
			remaining -= take
			if s.cap <= 1e-15 {
				seg++
			}
		}
	}
	return value
}
