// Package price models hourly electricity prices per data-center location.
//
// The paper drives its simulation with publicly available hourly prices
// (FERC/CAISO) at three undisclosed locations; this package substitutes a
// synthetic process with the same structure GreFar exploits: a diurnal
// trough/peak cycle, location-specific level and phase, and mean-reverting
// stochastic variation. The reference configuration is calibrated so the
// long-run average prices match Table I of the paper
// (0.392, 0.433, 0.548).
package price

import (
	"fmt"
	"math"
	"math/rand"
)

// Source yields the electricity price phi_i(t) of one location at slot t.
// Implementations must be deterministic in t so simulations are repeatable.
type Source interface {
	At(t int) float64
}

// Constant is a fixed price, as assumed by right-sizing work the paper cites.
type Constant float64

var _ Source = Constant(0)

// At implements Source.
func (c Constant) At(int) float64 { return float64(c) }

// Trace replays a materialized price series, wrapping around at the end so a
// simulation may run longer than the trace.
type Trace struct {
	Values []float64
}

var _ Source = (*Trace)(nil)

// At implements Source.
func (tr *Trace) At(t int) float64 {
	if len(tr.Values) == 0 {
		return 0
	}
	return tr.Values[((t%len(tr.Values))+len(tr.Values))%len(tr.Values)]
}

// Stats returns the mean, minimum, and maximum of the trace.
func (tr *Trace) Stats() (mean, min, max float64) {
	if len(tr.Values) == 0 {
		return 0, 0, 0
	}
	min, max = tr.Values[0], tr.Values[0]
	var sum float64
	for _, v := range tr.Values {
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return sum / float64(len(tr.Values)), min, max
}

// DiurnalParams configure a synthetic hourly price process: a daily cosine
// shape (trough in the early morning, peak in the late afternoon) around
// Mean, plus mean-reverting (discretized Ornstein-Uhlenbeck) noise.
type DiurnalParams struct {
	// Mean is the long-run average price level.
	Mean float64
	// Amplitude is half the trough-to-peak swing of the daily shape.
	Amplitude float64
	// PeriodHours is the length of a day in slots (default 24).
	PeriodHours int
	// PhaseHours shifts the daily shape, modelling time zones.
	PhaseHours int
	// NoiseSigma is the standard deviation of the per-slot noise shock.
	NoiseSigma float64
	// Reversion is the mean-reversion strength theta in (0, 1]; larger snaps
	// back faster (default 0.3).
	Reversion float64
	// Floor is the minimum price (default 10% of Mean).
	Floor float64
}

func (p DiurnalParams) withDefaults() DiurnalParams {
	if p.PeriodHours <= 0 {
		p.PeriodHours = 24
	}
	if p.Reversion <= 0 {
		p.Reversion = 0.3
	}
	if p.Floor <= 0 {
		p.Floor = 0.1 * p.Mean
	}
	return p
}

// GenerateDiurnal materializes n slots of the process using the given
// deterministic random source.
func GenerateDiurnal(rng *rand.Rand, n int, p DiurnalParams) (*Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace length %d is not positive", n)
	}
	if p.Mean <= 0 {
		return nil, fmt.Errorf("mean price %v is not positive", p.Mean)
	}
	if p.Amplitude < 0 || p.NoiseSigma < 0 {
		return nil, fmt.Errorf("amplitude %v and noise %v must be non-negative", p.Amplitude, p.NoiseSigma)
	}
	p = p.withDefaults()
	// The shape has one value per hour of the period, tabulated once. The
	// table stops at the run's length when the period is longer, and holds
	// no negative hour (a negative phase before the first wrap): those
	// hours are computed in place.
	table := make([]float64, min(p.PeriodHours, n))
	for h := range table {
		table[h] = dailyShape(h, p.PeriodHours)
	}
	values := make([]float64, n)
	var ou float64
	for t := 0; t < n; t++ {
		hour := (t + p.PhaseHours) % p.PeriodHours
		var shape float64
		if hour >= 0 && hour < len(table) {
			shape = table[hour]
		} else {
			shape = dailyShape(hour, p.PeriodHours)
		}
		ou += p.Reversion*(0-ou) + p.NoiseSigma*rng.NormFloat64()
		v := p.Mean + p.Amplitude*shape + ou
		if v < p.Floor {
			v = p.Floor
		}
		values[t] = v
	}
	return &Trace{Values: values}, nil
}

// dailyShape is the daily price shape at hour of a period-hour day: its
// trough is near 4am and its peak near 4pm local time.
func dailyShape(hour, period int) float64 {
	return -math.Cos(2 * math.Pi * (float64(hour) - 4) / float64(period))
}

// ReferenceParams returns the three-location configuration calibrated to the
// paper's Table I average prices. Phases differ to model distinct time
// zones, which is what creates the cross-location arbitrage GreFar exploits.
func ReferenceParams() []DiurnalParams {
	return []DiurnalParams{
		{Mean: 0.392, Amplitude: 0.050, PhaseHours: 0, NoiseSigma: 0.055, Reversion: 0.25},
		{Mean: 0.433, Amplitude: 0.055, PhaseHours: 3, NoiseSigma: 0.060, Reversion: 0.25},
		{Mean: 0.548, Amplitude: 0.070, PhaseHours: 6, NoiseSigma: 0.075, Reversion: 0.25},
	}
}

// NewReferenceSources materializes n slots of the three reference locations
// with a deterministic seed.
func NewReferenceSources(seed int64, n int) ([]*Trace, error) {
	params := ReferenceParams()
	out := make([]*Trace, len(params))
	rng := rand.New(rand.NewSource(seed))
	for i, p := range params {
		tr, err := GenerateDiurnal(rng, n, p)
		if err != nil {
			return nil, fmt.Errorf("location %d: %w", i, err)
		}
		out[i] = tr
	}
	return out, nil
}
