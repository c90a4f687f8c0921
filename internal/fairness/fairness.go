// Package fairness implements the fairness functions used to score resource
// allocation across accounts. The paper's function (eq. 3) is the negative
// squared deviation of realized shares from target weights:
//
//	f(t) = - sum_m ( r_m(t)/R(t) - gamma_m )^2
//
// where r_m(t) is the resource allocated to account m, R(t) the total
// available resource, and gamma_m the account's target share. The maximum
// (ideal) score is 0. An alpha-fair alternative is provided as the extension
// the paper's footnote 5 invites ("our analysis also applies if other
// fairness functions are considered").
package fairness

import (
	"fmt"
	"math"
)

// Function scores an allocation. alloc[m] is the resource given to account m
// this slot (r_m(t)); total is the available resource R(t). Higher is fairer.
type Function interface {
	// Score returns the fairness value f(t). alloc belongs to the caller,
	// which may rewrite it after Score returns (sim.Engine reuses one slice
	// every slot): an implementation must not retain it.
	Score(alloc []float64, total float64) float64
	// Name identifies the function in reports.
	Name() string
}

// Quadratic is the paper's fairness function (eq. 3).
type Quadratic struct {
	// Weights are the target shares gamma_m >= 0.
	Weights []float64
}

var _ Function = (*Quadratic)(nil)

// NewQuadratic builds the paper's fairness function for the given target
// shares. Weights must be non-negative.
func NewQuadratic(weights []float64) (*Quadratic, error) {
	for m, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("weight %d is negative: %v", m, w)
		}
	}
	return &Quadratic{Weights: append([]float64(nil), weights...)}, nil
}

// Score returns -sum_m (alloc_m/total - gamma_m)^2. When total is zero the
// score is the (constant) value at zero allocation, -sum gamma^2.
func (q *Quadratic) Score(alloc []float64, total float64) float64 {
	var s float64
	for m, w := range q.Weights {
		share := 0.0
		if total > 0 && m < len(alloc) {
			share = alloc[m] / total
		}
		d := share - w
		s -= d * d
	}
	return s
}

// Name implements Function.
func (q *Quadratic) Name() string { return "quadratic-deviation" }

// Deviations returns the per-account share deviations share_m - gamma_m,
// useful for diagnostics and reports.
func (q *Quadratic) Deviations(alloc []float64, total float64) []float64 {
	out := make([]float64, len(q.Weights))
	for m, w := range q.Weights {
		share := 0.0
		if total > 0 && m < len(alloc) {
			share = alloc[m] / total
		}
		out[m] = share - w
	}
	return out
}

// AlphaFair is the alpha-fair utility family of Mo and Walrand, aggregated
// over accounts with the target weights: for alpha != 1 the per-account
// utility of share x is w_m * x^(1-alpha)/(1-alpha); for alpha = 1 it is
// w_m * log(x). alpha = 0 is utilitarian, alpha -> infinity approaches
// max-min fairness. Shares are floored at Epsilon to keep the score finite.
type AlphaFair struct {
	// Alpha selects the fairness curve (>= 0).
	Alpha float64
	// Weights are per-account multipliers.
	Weights []float64
	// Epsilon floors shares (default 1e-6 when zero).
	Epsilon float64
}

var _ Function = (*AlphaFair)(nil)

// NewAlphaFair builds an alpha-fair function.
func NewAlphaFair(alpha float64, weights []float64) (*AlphaFair, error) {
	if alpha < 0 {
		return nil, fmt.Errorf("alpha %v is negative", alpha)
	}
	for m, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("weight %d is negative: %v", m, w)
		}
	}
	return &AlphaFair{Alpha: alpha, Weights: append([]float64(nil), weights...)}, nil
}

// Score implements Function.
func (a *AlphaFair) Score(alloc []float64, total float64) float64 {
	eps := a.Epsilon
	if eps <= 0 {
		eps = 1e-6
	}
	var s float64
	for m, w := range a.Weights {
		share := eps
		if total > 0 && m < len(alloc) && alloc[m]/total > eps {
			share = alloc[m] / total
		}
		switch {
		case a.Alpha == 1:
			s += w * math.Log(share)
		default:
			s += w * math.Pow(share, 1-a.Alpha) / (1 - a.Alpha)
		}
	}
	return s
}

// Name implements Function.
func (a *AlphaFair) Name() string { return fmt.Sprintf("alpha-fair(%g)", a.Alpha) }
