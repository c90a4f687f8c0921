package sim

import "fmt"

// AdmissionPolicy decides how many of a slot's arriving jobs are admitted
// into the central queues. The paper (section V) notes that when the system
// is overloaded — so the slackness conditions cannot hold — "admission
// control techniques can be applied to complement our scheme"; this is that
// complement.
type AdmissionPolicy interface {
	// Admit returns how many of the arriving jobs of each type to accept,
	// given the current central backlogs. arrivals is read-only: it may be
	// the workload's own row. The returned slice may alias it. Each entry
	// must be in [0, arrivals[j]].
	Admit(t int, arrivals []int, centralLens []float64) []int
	// Name identifies the policy in reports.
	Name() string
}

// ThresholdAdmission rejects arrivals that would push a job type's central
// backlog above a fixed threshold — the classic tail-drop rule. It keeps
// every queue trivially bounded regardless of load, at the cost of loss.
type ThresholdAdmission struct {
	// Limit[j] is the maximum admitted central backlog for job type j; a
	// non-positive entry disables the limit for that type.
	Limit []float64
}

var _ AdmissionPolicy = (*ThresholdAdmission)(nil)

// NewThresholdAdmission builds the policy with one limit per job type.
func NewThresholdAdmission(limit []float64) (*ThresholdAdmission, error) {
	for j, l := range limit {
		if l < 0 {
			return nil, fmt.Errorf("job type %d: negative limit %v", j, l)
		}
	}
	return &ThresholdAdmission{Limit: append([]float64(nil), limit...)}, nil
}

// Admit implements AdmissionPolicy.
func (p *ThresholdAdmission) Admit(_ int, arrivals []int, centralLens []float64) []int {
	out := make([]int, len(arrivals))
	for j, a := range arrivals {
		out[j] = a
		if j >= len(p.Limit) || p.Limit[j] <= 0 {
			continue
		}
		room := p.Limit[j] - centralLens[j]
		if room < 0 {
			room = 0
		}
		if float64(a) > room {
			out[j] = int(room)
		}
	}
	return out
}

// Name implements AdmissionPolicy.
func (p *ThresholdAdmission) Name() string { return "threshold-admission" }
