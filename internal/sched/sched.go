// Package sched defines the scheduler abstraction shared by the GreFar
// algorithm and its baselines, and implements the two comparison policies of
// the paper's evaluation: the myopic "Always" policy (section VI-B3), which
// schedules jobs immediately whenever resources are available, and the
// optimal T-step lookahead benchmark of Theorem 1 (eqs. 15-18), computed by
// linear programming with full future information.
package sched

import (
	"grefar/internal/model"
	"grefar/internal/queue"
)

// Scheduler decides the slot action from purely per-slot observable inputs:
// the revealed data center state x(t) and the queue backlogs Theta(t).
type Scheduler interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide returns the action z(t) for slot t. Implementations must treat
	// st and q as read-only and must not keep q: it may be a view the caller
	// rewrites after Decide returns (queue.Set.View).
	//
	// The returned action may be storage the scheduler owns and rewrites on
	// its next Decide (GreFar does; the baselines here return a fresh one,
	// which trivially satisfies the rule). It is valid until the scheduler's
	// next Decide call; a caller that keeps it longer keeps a Clone.
	Decide(t int, st *model.State, q queue.Lengths) (*model.Action, error)
}

// routeBudget returns how many type-j jobs may still be routed to data
// center i in one slot given the bound r_max (0 means unbounded, represented
// here by a large budget).
func routeBudget(jt model.JobType) int {
	if jt.MaxRoute > 0 {
		return jt.MaxRoute
	}
	return 1 << 30
}

// processBudget returns the per-slot processing bound for a (data center,
// job type) pair, capped at the jobs physically queued.
func processBudget(jt model.JobType, queued float64) float64 {
	b := queued
	if jt.MaxProcess > 0 && jt.MaxProcess < b {
		b = jt.MaxProcess
	}
	return b
}

// drainScale returns the largest uniform factor in [0,1] by which the given
// per-type processing budgets can be executed at site i without violating
// the CPU capacity or any auxiliary resource capacity (footnote 3). The
// drain-everything baselines use it so they stay feasible on clusters with
// vector demands.
func drainScale(c *model.Cluster, i int, budgets []float64, capacity float64) float64 {
	scale := 1.0
	var want float64
	for j, b := range budgets {
		want += b * c.JobTypes[j].Demand
	}
	if want > capacity && want > 0 {
		scale = capacity / want
	}
	for r := 0; r < c.Aux(); r++ {
		var use float64
		for j, b := range budgets {
			if r < len(c.JobTypes[j].AuxDemand) {
				use += b * c.JobTypes[j].AuxDemand[r]
			}
		}
		if cap := c.DataCenters[i].AuxCapacity[r]; use > cap && use > 0 {
			if s := cap / use; s < scale {
				scale = s
			}
		}
	}
	return scale
}
