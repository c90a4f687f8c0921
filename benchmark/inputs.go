package main

import (
	"math"
	"math/rand"

	"grefar/internal/availability"
	"grefar/internal/hollow"
	"grefar/internal/price"
	"grefar/internal/sim"
	"grefar/internal/workload"
)

// noiseBlock is the length, in slots, of one block of arrival noise: one
// diurnal period.
const noiseBlock = 24

// arrivalNoise returns multipliers in [0.7, 1.3] for slots slots. Every block
// of noiseBlock slots holds the same evenly spaced values in a seeded order,
// so two seeds give different arrival sequences with the same volume per
// period. The schedule-quality figures then differ between seeds by the order
// of the arrivals only.
func arrivalNoise(rng *rand.Rand, slots int) []float64 {
	out := make([]float64, 0, slots+noiseBlock)
	for len(out) < slots {
		for _, k := range rng.Perm(noiseBlock) {
			out = append(out, 0.7+0.6*(float64(k)+0.5)/noiseBlock)
		}
	}
	return out[:slots]
}

// diurnal is the arrival volume's daily shape.
func diurnal(t int) float64 { return 1 + 0.25*math.Sin(2*math.Pi*float64(t%24)/24) }

// diurnalPrices returns a site's 24-slot price curve: a level by efficiency
// class and a phase by position, as geography would give.
func diurnalPrices(site int) *price.Trace {
	level := []float64{0.40, 0.45, 0.55}[site%3]
	vals := make([]float64, 24)
	for h := range vals {
		vals[h] = level * (1 + 0.3*math.Cos(2*math.Pi*(float64(h)+float64(site%24))/24))
	}
	return &price.Trace{Values: vals}
}

// newFleetInputs generates a fleet workload's inputs from the seed: the
// repo's synthetic scale cluster (single-server sites in three classes, three
// job types eligible everywhere, two accounts), diurnal prices, four servers
// per site, and seeded arrivals at about 60% of the fleet's capacity.
func newFleetInputs(seed int64, sz fleetSizes) (sim.Inputs, error) {
	c, err := hollow.NewScaleCluster(sz.Agents)
	if err != nil {
		return sim.Inputs{}, err
	}
	n := c.N()
	prices := make([]price.Source, n)
	avail := make([][]float64, n)
	var capacity float64
	for i := 0; i < n; i++ {
		prices[i] = diurnalPrices(i)
		avail[i] = []float64{4}
		capacity += c.DataCenters[i].Servers[0].Speed * avail[i][0]
	}
	var meanDemand float64
	for _, jt := range c.JobTypes {
		meanDemand += jt.Demand / float64(c.J())
	}
	perType := 0.6 * capacity / meanDemand / float64(c.J())
	rng := rand.New(rand.NewSource(seed))
	counts := make([][]int, sz.Horizon)
	for t := range counts {
		counts[t] = make([]int, c.J())
	}
	for j := 0; j < c.J(); j++ {
		for t, m := range arrivalNoise(rng, sz.Horizon) {
			counts[t][j] = int(perType * diurnal(t) * m)
		}
	}
	return sim.Inputs{
		Cluster:      c,
		Prices:       prices,
		Workload:     &workload.Trace{Counts: counts},
		Availability: &availability.Static{Avail: avail},
	}, nil
}
