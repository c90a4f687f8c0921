package core

import (
	"math"

	"grefar/internal/model"
)

// warmOutcome classifies one warm-start attempt; GreFar.warmStart maps it to
// the telemetry Warm* constants and counters.
type warmOutcome int

const (
	// warmHit: the saved iterate is feasible for the current slot as-is.
	warmHit warmOutcome = iota
	// warmRepaired: the iterate violated a cap and was clamped/rescaled back
	// into the feasible set.
	warmRepaired
	// warmFallback: the iterate is unusable (non-finite, or repairing it
	// would destroy it); the caller must cold-start from zero.
	warmFallback
)

// warmCollapseScale is the give-up threshold of the feasibility repair: when
// a coupling constraint forces the processing block of a site to shrink by
// more than this factor (capacity or auxiliary headroom collapsed to under
// 10% of what the iterate uses), the state has jumped far enough that the
// rescaled iterate carries no useful information, and the zero cold start is
// the better seed.
const warmCollapseScale = 0.1

// warmFeasEps is the relative slack tolerated on the coupling rows before
// repair kicks in. The saved iterate is a convex combination of oracle
// vertices, each exactly feasible, but re-summing the rows in a different
// order can flip the inequality at the last ulp; without the slack, every
// unchanged slot would be misclassified as "repaired". The slack is ~1e-12
// relative, six orders below the model's feasibilityTol.
const warmFeasEps = 1e-12

// repairWarm clamps and rescales x — a previous slot's (h, b) iterate in
// slotLayout order, the warm buffer SchedulerState carries — into the
// current slot's feasible set, in place, against the compact caps the last
// refresh built.
//
// Per site, the repair (1) clamps h into [0, hCap] and b into [0, avail];
// (2) restores the capacity row sum_j d_j*h <= sum_k s_k*b by scaling the
// site's h block down (scaling down is always safe: it keeps the box and only
// loosens the auxiliary rows); and (3) restores each auxiliary row (footnote
// 3) the same way. Every move shrinks h, so the steps cannot un-repair each
// other and a single pass suffices.
//
// It walks eligible pairs only: an ineligible pair holds an exact zero
// (RestoreState rejects an iterate that would put mass there) and needs
// neither the finite check nor the clamp. An inactive pair's cap is zero, so
// any mass there clamps away, and the row sums skip inactive pairs, whose
// terms are then exact zeros.
//
// It returns warmHit when nothing needed repair, warmRepaired when the
// result is feasible but was moved, and warmFallback when the iterate is
// non-finite or a coupling row would force a site's h block below
// warmCollapseScale of itself — in which case x is left in an unspecified
// state and the caller must use the zero start.
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

		// Capacity row (eq. 11): sum_j d_j h_{i,j} <= sum_k s_k b_{i,k}.
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

		// Auxiliary rows: sum_j AuxDemand_{j,r} h_{i,j} <= cap_r.
		for r := 0; r < c.Aux(); r++ {
			usage := 0.0
			for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
				if aux := c.JobTypes[sp.pairJ[t]].AuxDemand; r < len(aux) {
					usage += aux[r] * x[sp.denseIdx[t]]
				}
			}
			capR := c.DataCenters[i].AuxCapacity[r]
			if usage > capR*(1+warmFeasEps) {
				if capR < warmCollapseScale*usage {
					return warmFallback
				}
				scale := capR / usage
				for t := sp.siteOff[i]; t < sp.siteOff[i+1]; t++ {
					x[sp.denseIdx[t]] *= scale
				}
				repaired = true
			}
		}
	}
	if repaired {
		return warmRepaired
	}
	return warmHit
}
