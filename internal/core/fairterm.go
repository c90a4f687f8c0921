package core

import (
	"grefar/internal/model"
	"grefar/internal/solve"
	"grefar/internal/tariff"
)

// FairnessTerm is the pluggable convex fairness penalty the slot optimizer
// adds when beta > 0: P(alloc) should equal -f(alloc, total) for the chosen
// fairness function f, evaluated on per-account allocated work. The paper's
// footnote 5 ("our analysis also applies if other fairness functions are
// considered") is realized by swapping this term; fairness.Quadratic (the
// paper's eq. 3) and fairness.AlphaFair both satisfy it.
type FairnessTerm interface {
	// Penalty evaluates P(alloc) given the total available resource.
	Penalty(alloc []float64, total float64) float64
	// PenaltyGrad writes dP/d(alloc) into grad (len = number of accounts).
	PenaltyGrad(alloc []float64, total float64, grad []float64)
}

// CurvedFairnessTerm is implemented by quadratic penalties that can report
// exact directional curvature, enabling exact Frank-Wolfe line search.
type CurvedFairnessTerm interface {
	FairnessTerm
	// PenaltyCurvatureAlong returns dir' H dir for a direction expressed in
	// per-account allocation space.
	PenaltyCurvatureAlong(dir []float64, total float64) float64
}

// slotObjective is the general convex slot program over the concatenated
// variables x = [h ; b (sum K)], h being one variable per active pair in the
// compact layout Decide runs on (sparse.go), or all N*J pairs in the dense
// reference SlotObjective builds:
//
//	Linear.x + V*beta * P(alloc(h)) + V * sum_i [T(phi_i, base_i+E_i(b)) - T(phi_i, base_i)]
//
// where alloc_m(h) = sum over h-variables of account m of d_j*h_{i,j} and
// E_i(b) = sum_k p_k*b_{i,k}. The tariff term is present only under
// non-linear pricing (the section III-A2 extension); with the baseline
// linear tariff the energy cost is folded into the linear coefficients.
type slotObjective struct {
	linear []float64
	vbeta  float64
	term   FairnessTerm
	total  float64 // R(t)

	nH      int       // number of h variables
	account []int     // account of each h variable
	demand  []float64 // demand of each h variable
	m       int       // number of accounts

	// Non-linear tariff support (nil trf means the energy cost is linear
	// and already inside `linear`).
	trf   tariff.Tariff
	v     float64   // V, scaling the tariff term
	price []float64 // phi_i
	base  []float64 // base energy per site
	power []float64 // per b-variable: p_k
	bSite []int     // per b-variable: site index

	// scratch buffers (the optimizer is single-threaded per Decide call)
	alloc     []float64
	allocGrad []float64
	allocDir  []float64
	energyBuf []float64
}

var _ solve.Objective = (*slotObjective)(nil)

func newSlotObjective(c *model.Cluster, linear []float64, vbeta, total float64, term FairnessTerm) *slotObjective {
	nH := c.N() * c.J()
	so := &slotObjective{
		linear:    linear,
		vbeta:     vbeta,
		term:      term,
		total:     total,
		nH:        nH,
		account:   make([]int, nH),
		demand:    make([]float64, nH),
		m:         c.M(),
		alloc:     make([]float64, c.M()),
		allocGrad: make([]float64, c.M()),
		allocDir:  make([]float64, c.M()),
	}
	for i := 0; i < c.N(); i++ {
		for j := 0; j < c.J(); j++ {
			v := i*c.J() + j
			so.account[v] = c.JobTypes[j].Account
			so.demand[v] = c.JobTypes[j].Demand
		}
	}
	return so
}

// attachTariff activates the non-linear tariff term. The b-columns of the
// linear coefficient vector must be zero when this is used.
func (so *slotObjective) attachTariff(c *model.Cluster, st *model.State, trf tariff.Tariff, v float64) {
	so.trf = trf
	so.v = v
	so.price = st.Price
	so.base = make([]float64, c.N())
	so.energyBuf = make([]float64, c.N())
	nB := 0
	for i := 0; i < c.N(); i++ {
		so.base[i] = st.BaseEnergyAt(i)
		nB += c.K(i)
	}
	so.power = make([]float64, nB)
	so.bSite = make([]int, nB)
	v2 := 0
	for i := 0; i < c.N(); i++ {
		for k := 0; k < c.K(i); k++ {
			so.power[v2] = c.DataCenters[i].Servers[k].Power
			so.bSite[v2] = i
			v2++
		}
	}
}

// refreshTariff updates the tariff term's per-slot state (prices, base
// energy) in place; the per-variable power and site maps are cluster-static
// and stay untouched. Only valid after attachTariff.
func (so *slotObjective) refreshTariff(c *model.Cluster, st *model.State) {
	so.price = st.Price
	for i := 0; i < c.N(); i++ {
		so.base[i] = st.BaseEnergyAt(i)
	}
}

// fillEnergy computes per-site batch energy from the b-part of x.
func (so *slotObjective) fillEnergy(x []float64, out []float64) {
	for i := range out {
		out[i] = 0
	}
	for v, p := range so.power {
		out[so.bSite[v]] += p * x[so.nH+v]
	}
}

func (so *slotObjective) fillAlloc(x []float64, out []float64) {
	for m := range out {
		out[m] = 0
	}
	for v := 0; v < so.nH; v++ {
		out[so.account[v]] += so.demand[v] * x[v]
	}
}

// Value implements solve.Objective.
func (so *slotObjective) Value(x []float64) float64 {
	var v float64
	for j, c := range so.linear {
		v += c * x[j]
	}
	if so.vbeta > 0 && so.total > 0 {
		so.fillAlloc(x, so.alloc)
		v += so.vbeta * so.term.Penalty(so.alloc, so.total)
	}
	if so.trf != nil {
		so.fillEnergy(x, so.energyBuf)
		for i, e := range so.energyBuf {
			v += so.v * (so.trf.Cost(so.price[i], so.base[i]+e) - so.trf.Cost(so.price[i], so.base[i]))
		}
	}
	return v
}

// Grad implements solve.Objective.
func (so *slotObjective) Grad(x, grad []float64) {
	copy(grad, so.linear)
	if so.vbeta > 0 && so.total > 0 {
		so.fillAlloc(x, so.alloc)
		so.term.PenaltyGrad(so.alloc, so.total, so.allocGrad)
		for v := 0; v < so.nH; v++ {
			grad[v] += so.vbeta * so.allocGrad[so.account[v]] * so.demand[v]
		}
	}
	if so.trf != nil {
		so.fillEnergy(x, so.energyBuf)
		for v, p := range so.power {
			i := so.bSite[v]
			grad[so.nH+v] += so.v * so.trf.Marginal(so.price[i], so.base[i]+so.energyBuf[i]) * p
		}
	}
}

// curvedSlotObjective wraps a slotObjective whose fairness term is
// quadratic, exposing exact directional curvature so Frank-Wolfe can use
// exact line search. Non-quadratic terms (alpha-fair) deliberately do NOT
// expose CurvatureAlong, which makes the solver fall back to its provably
// convergent diminishing step rule.
type curvedSlotObjective struct {
	*slotObjective
	curved CurvedFairnessTerm
}

var _ solve.CurvatureAlong = (*curvedSlotObjective)(nil)

// CurvatureAlong implements solve.CurvatureAlong.
func (co *curvedSlotObjective) CurvatureAlong(_, dir []float64) float64 {
	var v float64
	if co.vbeta > 0 && co.total > 0 {
		co.fillAlloc(dir, co.allocDir)
		v += co.vbeta * co.curved.PenaltyCurvatureAlong(co.allocDir, co.total)
	}
	if co.trf != nil {
		curvedTrf, ok := co.trf.(tariff.SecondDerivative)
		if ok {
			co.fillEnergy(dir, co.energyBuf)
			for i, de := range co.energyBuf {
				v += co.v * curvedTrf.CostCurvature(co.price[i]) * de * de
			}
		}
	}
	return v
}

// wrapSlotObjective selects the curved variant when exact directional
// curvature is available: the fairness term must be quadratic (or absent)
// and the tariff must have a constant second derivative (or be absent).
// Otherwise the solver falls back to the provably convergent diminishing
// step rule.
func wrapSlotObjective(so *slotObjective) solve.Objective {
	curved, fairOK := so.term.(CurvedFairnessTerm)
	if so.vbeta == 0 {
		fairOK = true
	}
	tariffOK := so.trf == nil
	if !tariffOK {
		_, tariffOK = so.trf.(tariff.SecondDerivative)
	}
	if fairOK && tariffOK {
		return &curvedSlotObjective{slotObjective: so, curved: curved}
	}
	return so
}
