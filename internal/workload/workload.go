// Package workload generates the batch-job arrival processes a_j(t) that
// drive the simulation.
//
// The paper uses a proprietary trace from Microsoft Cosmos clusters; its
// Fig. 1 shows arrivals that are strongly time-of-day dependent, bursty, and
// non-stationary, with four organizations submitting very different volumes.
// This package substitutes a synthetic process with those properties:
// per-job-type Poisson-like arrivals modulated by a diurnal cycle, sporadic
// multiplicative bursts, and a slow non-stationary drift. Arrivals are always
// clamped to the job type's a_max bound (paper eq. 1) — the only assumption
// the analysis needs.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"grefar/internal/model"
)

// Generator yields the arrival counts for every job type at slot t.
// Implementations must be deterministic in t. The returned slice is
// read-only: it may be the generator's own storage, shared by every call for
// the same slot.
type Generator interface {
	Arrivals(t int) []int
}

// Trace replays a materialized arrival series, wrapping at the end.
type Trace struct {
	// Counts[t][j] is the number of type-j jobs arriving during slot t.
	Counts [][]int
}

var _ Generator = (*Trace)(nil)

// Arrivals implements Generator. The returned slice is the stored row, so it
// is read-only.
func (tr *Trace) Arrivals(t int) []int {
	if len(tr.Counts) == 0 {
		return nil
	}
	return tr.Counts[((t%len(tr.Counts))+len(tr.Counts))%len(tr.Counts)]
}

// Len returns the number of materialized slots.
func (tr *Trace) Len() int { return len(tr.Counts) }

// TotalWork returns the total service demand (jobs x demand) arriving at
// slot t, the quantity plotted in the paper's Fig. 1 bottom panel.
func (tr *Trace) TotalWork(c *model.Cluster, t int) float64 {
	var w float64
	for j, a := range tr.Arrivals(t) {
		w += float64(a) * c.JobTypes[j].Demand
	}
	return w
}

// AccountWork returns the arriving service demand per account at slot t.
func (tr *Trace) AccountWork(c *model.Cluster, t int) []float64 {
	out := make([]float64, c.M())
	for j, a := range tr.Arrivals(t) {
		jt := c.JobTypes[j]
		out[jt.Account] += float64(a) * jt.Demand
	}
	return out
}

// Profile configures the synthetic arrival process of one job type.
type Profile struct {
	// MeanPerSlot is the long-run average arrival rate in jobs per slot.
	MeanPerSlot float64
	// DiurnalDepth in [0,1] scales the day/night swing: at depth 1 the
	// night-time rate drops to zero and the afternoon rate doubles.
	DiurnalDepth float64
	// BurstProb is the per-slot probability of a burst.
	BurstProb float64
	// BurstScale multiplies the rate during a burst.
	BurstScale float64
	// DriftPeriod, when positive, adds a slow sinusoidal non-stationarity
	// with this period in slots (e.g. a week), of relative amplitude
	// DriftDepth.
	DriftPeriod int
	DriftDepth  float64
	// PhaseHours shifts this type's diurnal cycle.
	PhaseHours int
}

func (p Profile) validate(j int) error {
	if p.MeanPerSlot < 0 {
		return fmt.Errorf("profile %d: negative mean %v", j, p.MeanPerSlot)
	}
	if p.DiurnalDepth < 0 || p.DiurnalDepth > 1 {
		return fmt.Errorf("profile %d: diurnal depth %v outside [0,1]", j, p.DiurnalDepth)
	}
	if p.BurstProb < 0 || p.BurstProb > 1 {
		return fmt.Errorf("profile %d: burst probability %v outside [0,1]", j, p.BurstProb)
	}
	if p.BurstScale < 0 {
		return fmt.Errorf("profile %d: negative burst scale %v", j, p.BurstScale)
	}
	if p.DriftDepth < 0 || p.DriftDepth > 1 {
		return fmt.Errorf("profile %d: drift depth %v outside [0,1]", j, p.DriftDepth)
	}
	return nil
}

// Check reports the error Generate would return for these arguments without
// generating anything: a non-positive length, a profile count that does not
// match the cluster's job types, or an invalid profile.
func Check(c *model.Cluster, n int, profiles []Profile) error {
	if n <= 0 {
		return fmt.Errorf("trace length %d is not positive", n)
	}
	if len(profiles) != c.J() {
		return fmt.Errorf("got %d profiles, cluster has %d job types", len(profiles), c.J())
	}
	for j, p := range profiles {
		if err := p.validate(j); err != nil {
			return err
		}
	}
	return nil
}

// Generate materializes n slots of arrivals for the cluster's job types from
// the given profiles (one per job type). Counts are clamped to each type's
// MaxArrival bound when that bound is positive.
func Generate(rng *rand.Rand, c *model.Cluster, n int, profiles []Profile) (*Trace, error) {
	if err := Check(c, n, profiles); err != nil {
		return nil, err
	}
	counts := make([][]int, n)
	for t := 0; t < n; t++ {
		row := make([]int, c.J())
		for j, p := range profiles {
			rate := p.MeanPerSlot
			// Diurnal modulation: trough at 4am, peak at 4pm, mean 1.
			hour := float64((t + p.PhaseHours) % 24)
			rate *= 1 - p.DiurnalDepth*math.Cos(2*math.Pi*(hour-4)/24)
			if p.DriftPeriod > 0 {
				rate *= 1 + p.DriftDepth*math.Sin(2*math.Pi*float64(t)/float64(p.DriftPeriod))
			}
			if p.BurstProb > 0 && rng.Float64() < p.BurstProb {
				rate *= p.BurstScale
			}
			a := poisson(rng, rate)
			if max := c.JobTypes[j].MaxArrival; max > 0 && a > max {
				a = max
			}
			row[j] = a
		}
		counts[t] = row
	}
	return &Trace{Counts: counts}, nil
}

// poisson draws a Poisson variate by inversion for small rates and a normal
// approximation for large ones. The result is never negative.
func poisson(rng *rand.Rand, rate float64) int {
	if rate <= 0 {
		return 0
	}
	if rate > 30 {
		v := int(math.Round(rate + math.Sqrt(rate)*rng.NormFloat64()))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-rate)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// ReferenceProfiles returns per-job-type profiles for the reference cluster:
// four organizations with arrival volumes roughly proportional to their
// fairness weights (40/30/15/15), strong diurnal cycles, occasional bursts,
// and a slow four-week drift so the process is visibly non-stationary,
// echoing the paper's Fig. 1.
func ReferenceProfiles() []Profile {
	return []Profile{
		// org1 over-submits relative to its 40% target: ~47% of the work.
		// Short (demand 1) and long (demand 4) jobs, afternoon-heavy,
		// arriving in sporadic surges (the paper remarks organizations
		// "only submit job requests sporadically").
		{MeanPerSlot: 9.2, DiurnalDepth: 0.9, BurstProb: 0.10, BurstScale: 4, DriftPeriod: 672, DriftDepth: 0.2},
		{MeanPerSlot: 6.2, DiurnalDepth: 0.8, BurstProb: 0.10, BurstScale: 4, DriftPeriod: 672, DriftDepth: 0.2, PhaseHours: 1},
		// org2 under-submits relative to its 30% target: ~20%. Short (1)
		// and long (3), peaking six hours later (another time zone).
		{MeanPerSlot: 5.4, DiurnalDepth: 0.9, BurstProb: 0.10, BurstScale: 4, DriftPeriod: 672, DriftDepth: 0.25, PhaseHours: 6},
		{MeanPerSlot: 3.1, DiurnalDepth: 0.8, BurstProb: 0.10, BurstScale: 4, DriftPeriod: 672, DriftDepth: 0.15, PhaseHours: 7},
		// org3 slightly over target (15% -> ~17%): short (1) and long (2);
		// sporadic overnight submitter (batch pipelines).
		{MeanPerSlot: 5.9, DiurnalDepth: 0.9, BurstProb: 0.12, BurstScale: 4, DriftPeriod: 672, DriftDepth: 0.3, PhaseHours: 12},
		{MeanPerSlot: 3.1, DiurnalDepth: 0.8, BurstProb: 0.10, BurstScale: 4, DriftPeriod: 672, DriftDepth: 0.2, PhaseHours: 13},
		// org4 near target (~14%): short (1) and long (2); early-morning.
		{MeanPerSlot: 4.6, DiurnalDepth: 0.9, BurstProb: 0.10, BurstScale: 4, DriftPeriod: 672, DriftDepth: 0.25, PhaseHours: 18},
		{MeanPerSlot: 2.7, DiurnalDepth: 0.8, BurstProb: 0.10, BurstScale: 4, DriftPeriod: 672, DriftDepth: 0.2, PhaseHours: 19},
	}
}

// NewReferenceWorkload materializes n slots of the reference arrival process
// for the reference cluster with a deterministic seed.
func NewReferenceWorkload(seed int64, c *model.Cluster, n int) (*Trace, error) {
	rng := rand.New(rand.NewSource(seed))
	return Generate(rng, c, n, ReferenceProfiles())
}
