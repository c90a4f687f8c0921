// Package hollow hosts a kubemark-style hollow fleet: thousands of real
// agent.Agent state machines in one process, behind the real TCP wire
// format, multiplexed onto a single listener and a handful of pipelined
// connections instead of one socket pair per agent. The fleet exists to
// exercise the real controller — gather, decide, scatter, health tracking,
// degraded-mode masking — at agent counts one listener and one connection
// per agent cannot reach, so control-plane scale work is judged against
// measurements rather than extrapolation.
package hollow

import (
	"fmt"
	"math"
	"math/rand"

	"grefar/internal/availability"
	"grefar/internal/model"
	"grefar/internal/price"
	"grefar/internal/sim"
	"grefar/internal/workload"
)

// scaleJobTypes is how many job types the synthetic scale cluster models.
// Small on purpose: scale experiments stress the control plane's per-agent
// costs (N), not the solver's per-job costs (J), and ROADMAP item 2 owns the
// latter.
const scaleJobTypes = 3

// scaleAccounts is the number of organizations sharing the scale cluster.
const scaleAccounts = 2

// NewScaleCluster builds a synthetic cluster with n single-server-type data
// centers, scaleJobTypes job types eligible everywhere, and scaleAccounts
// accounts. Per-site shape mirrors the reference cluster's magnitudes
// (speed/power around 1-2, a handful of servers per site) so per-slot
// decisions look like the paper's, just wider.
func NewScaleCluster(n int) (*model.Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("hollow: cluster size %d is not positive", n)
	}
	c := &model.Cluster{
		DataCenters: make([]model.DataCenter, n),
		JobTypes:    make([]model.JobType, scaleJobTypes),
		Accounts:    make([]model.Account, scaleAccounts),
	}
	everywhere := make([]int, n)
	for i := range everywhere {
		everywhere[i] = i
	}
	for i := range c.DataCenters {
		// Three site classes with different efficiency, striped across the
		// fleet so prices and energy densities vary the way geography does.
		class := i % 3
		c.DataCenters[i] = model.DataCenter{
			Name: fmt.Sprintf("hollow-dc%d", i),
			Servers: []model.ServerType{{
				Name:  "std",
				Speed: []float64{2.0, 1.6, 1.2}[class],
				Power: []float64{1.0, 1.1, 1.3}[class],
			}},
		}
	}
	for j := range c.JobTypes {
		c.JobTypes[j] = model.JobType{
			Name:       fmt.Sprintf("type%d", j),
			Demand:     []float64{1.0, 1.5, 2.0}[j%3],
			Eligible:   everywhere,
			Account:    j % scaleAccounts,
			MaxArrival: 16 * n,
			MaxRoute:   0, // unbounded per site; the central queue caps it
			MaxProcess: 0,
		}
	}
	c.Accounts[0] = model.Account{Name: "org1", Weight: 0.6}
	c.Accounts[1] = model.Account{Name: "org2", Weight: 0.4}
	return c, nil
}

// NewScaleInputs assembles the hollow fleet's simulation inputs for an
// n-agent cluster: deterministic diurnal prices with per-site phase and
// level, static per-site availability, and a seeded arrival trace whose
// volume scales with the fleet so utilization stays constant as n grows
// (otherwise large fleets idle and the gather dominates everything).
func NewScaleInputs(seed int64, n, slots int) (sim.Inputs, error) {
	c, err := NewScaleCluster(n)
	if err != nil {
		return sim.Inputs{}, err
	}
	if slots <= 0 {
		return sim.Inputs{}, fmt.Errorf("hollow: horizon %d is not positive", slots)
	}

	// Prices: a pure function of (site, slot) — diurnal cosine with a
	// per-site phase from its stripe and a level from its class. No RNG, so
	// any two runs at any fleet size see identical per-site prices.
	prices := make([]price.Source, n)
	for i := 0; i < n; i++ {
		level := []float64{0.40, 0.45, 0.55}[i%3]
		phase := float64(i%24) / 24
		vals := make([]float64, 24)
		for h := range vals {
			vals[h] = level * (1 + 0.3*math.Cos(2*math.Pi*(float64(h)/24+phase)))
		}
		prices[i] = &price.Trace{Values: vals}
	}

	// Availability: static 4 servers per site. The control plane's scale
	// behavior does not depend on availability dynamics, and a static matrix
	// keeps per-slot agent reports bit-stable for divergence checks.
	avail := make([][]float64, n)
	for i := range avail {
		avail[i] = []float64{4}
	}

	// Workload: seeded per-slot arrivals targeting ~60% of fleet capacity.
	// Capacity is sum(speed*servers) work/slot; arrivals convert that into
	// jobs via the mean demand, split across types with diurnal shape and
	// multiplicative noise.
	var capacity float64
	for i := range c.DataCenters {
		capacity += c.DataCenters[i].Servers[0].Speed * avail[i][0]
	}
	var meanDemand float64
	for j := range c.JobTypes {
		meanDemand += c.JobTypes[j].Demand
	}
	meanDemand /= float64(c.J())
	jobsPerSlot := 0.6 * capacity / meanDemand
	rng := rand.New(rand.NewSource(seed))
	counts := make([][]int, slots)
	for t := range counts {
		diurnal := 1 + 0.25*math.Sin(2*math.Pi*float64(t%24)/24)
		counts[t] = make([]int, c.J())
		for j := range counts[t] {
			mean := jobsPerSlot * diurnal / float64(c.J())
			a := int(mean * (0.7 + 0.6*rng.Float64()))
			if max := c.JobTypes[j].MaxArrival; a > max {
				a = max
			}
			counts[t][j] = a
		}
	}

	return sim.Inputs{
		Cluster:      c,
		Prices:       prices,
		Workload:     &workload.Trace{Counts: counts},
		Availability: &availability.Static{Avail: avail},
	}, nil
}
