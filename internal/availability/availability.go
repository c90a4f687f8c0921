// Package availability models the time-varying number of servers available
// for batch processing, n_{i,k}(t). Availability changes when servers fail,
// are upgraded, or are claimed by higher-priority interactive workloads; the
// paper treats these as external events with arbitrary (possibly
// non-stationary) dynamics, subject only to the slackness conditions
// (20)-(22) that guarantee the system can drain its queues.
package availability

import (
	"fmt"
	"math"
	"math/rand"

	"grefar/internal/model"
)

// Process yields the availability matrix n_{i,k}(t) at slot t.
// Implementations must be deterministic in t.
type Process interface {
	// At returns availability per data center and server type. Callers must
	// not mutate the result.
	At(t int) [][]float64
}

// Static is a time-invariant availability matrix.
type Static struct {
	Avail [][]float64
}

var _ Process = (*Static)(nil)

// At implements Process.
func (s *Static) At(int) [][]float64 { return s.Avail }

// Trace replays a materialized availability series, wrapping at the end.
type Trace struct {
	// Values[t][i][k] is n_{i,k}(t).
	Values [][][]float64
}

var _ Process = (*Trace)(nil)

// At implements Process.
func (tr *Trace) At(t int) [][]float64 {
	if len(tr.Values) == 0 {
		return nil
	}
	return tr.Values[((t%len(tr.Values))+len(tr.Values))%len(tr.Values)]
}

// Len returns the number of materialized slots.
func (tr *Trace) Len() int { return len(tr.Values) }

// Params configure the fluctuating availability generator.
type Params struct {
	// Base[i][k] is the installed server count per data center and type.
	Base [][]float64
	// InteractiveShare in [0,1) is the average fraction of servers claimed
	// by interactive workloads (unavailable for batch).
	InteractiveShare float64
	// DiurnalDepth in [0,1] makes the interactive claim follow the day:
	// more servers are taken from batch during the afternoon peak.
	DiurnalDepth float64
	// Jitter is the standard deviation of multiplicative noise on the
	// available count (relative, e.g. 0.05).
	Jitter float64
	// MinShare in (0,1] floors availability at this fraction of Base, so
	// capacity never collapses entirely.
	MinShare float64
}

func (p Params) withDefaults() Params {
	if p.MinShare <= 0 {
		p.MinShare = 0.4
	}
	return p
}

// Generate materializes n slots of fluctuating availability.
func Generate(rng *rand.Rand, c *model.Cluster, n int, p Params) (*Trace, error) {
	if n <= 0 {
		return nil, fmt.Errorf("trace length %d is not positive", n)
	}
	if len(p.Base) != c.N() {
		return nil, fmt.Errorf("base has %d data centers, cluster has %d", len(p.Base), c.N())
	}
	for i := range p.Base {
		if len(p.Base[i]) != c.K(i) {
			return nil, fmt.Errorf("data center %d: base has %d server types, cluster has %d", i, len(p.Base[i]), c.K(i))
		}
		for k, b := range p.Base[i] {
			if b < 0 {
				return nil, fmt.Errorf("data center %d type %d: negative base %v", i, k, b)
			}
		}
	}
	if p.InteractiveShare < 0 || p.InteractiveShare >= 1 {
		return nil, fmt.Errorf("interactive share %v outside [0,1)", p.InteractiveShare)
	}
	if p.DiurnalDepth < 0 || p.DiurnalDepth > 1 {
		return nil, fmt.Errorf("diurnal depth %v outside [0,1]", p.DiurnalDepth)
	}
	if p.Jitter < 0 {
		return nil, fmt.Errorf("negative jitter %v", p.Jitter)
	}
	p = p.withDefaults()

	// The interactive claim depends only on the hour of the day.
	var claimed [24]float64
	for h := range claimed {
		day := -math.Cos(2 * math.Pi * (float64(h) - 4) / 24) // -1 at 4am, +1 at 4pm
		claimed[h] = p.InteractiveShare * (1 + p.DiurnalDepth*day)
	}
	// Every slot's rows are cut from one backing array of cells.
	width := 0
	for i := 0; i < c.N(); i++ {
		width += c.K(i)
	}
	cells := make([]float64, n*width)
	rows := make([][]float64, n*c.N())
	values := make([][][]float64, n)
	for t := 0; t < n; t++ {
		slot := rows[:c.N():c.N()]
		rows = rows[c.N():]
		for i := range slot {
			ki := c.K(i)
			slot[i], cells = cells[:ki:ki], cells[ki:]
			for k := range slot[i] {
				share := 1 - claimed[t%24]
				if p.Jitter > 0 {
					share *= 1 + p.Jitter*rng.NormFloat64()
				}
				if share < p.MinShare {
					share = p.MinShare
				}
				if share > 1 {
					share = 1
				}
				slot[i][k] = p.Base[i][k] * share
			}
		}
		values[t] = slot
	}
	return &Trace{Values: values}, nil
}

// ReferenceParams returns the availability configuration of the reference
// system: installed bases sized so total capacity comfortably exceeds the
// worst-case arriving work (the slackness conditions), with a 15% average
// interactive claim that deepens during the day.
func ReferenceParams() Params {
	return Params{
		Base:             [][]float64{{55}, {72}, {50}},
		InteractiveShare: 0.10,
		DiurnalDepth:     0.4,
		Jitter:           0.03,
		MinShare:         0.82,
	}
}

// NewReferenceAvailability materializes n slots for the reference cluster.
func NewReferenceAvailability(seed int64, c *model.Cluster, n int) (*Trace, error) {
	rng := rand.New(rand.NewSource(seed))
	return Generate(rng, c, n, ReferenceParams())
}

// VerifySlackness checks the capacity half of the paper's slackness
// conditions (20)-(22) on a realized sample path: at every slot t the total
// capacity must exceed the service demand that actually arrived, work[t], by
// at least delta. (The paper states the conditions for the realized states
// x(t) and arrivals a_j(t), not for worst-case bounds.) It returns the worst
// observed margin.
func VerifySlackness(c *model.Cluster, proc Process, work []float64, delta float64) (float64, error) {
	worst := math.Inf(1)
	st := model.NewState(c)
	for t := range work {
		avail := proc.At(t)
		for i := range avail {
			copy(st.Avail[i], avail[i])
		}
		var capacity float64
		for i := 0; i < c.N(); i++ {
			capacity += st.Capacity(c, i)
		}
		margin := capacity - work[t]
		if margin < worst {
			worst = margin
		}
		if margin < delta {
			return margin, fmt.Errorf("slot %d: capacity %v leaves margin %v < delta %v over arriving work %v",
				t, capacity, margin, delta, work[t])
		}
	}
	return worst, nil
}

// PeakWork returns the worst-case service demand arriving in one slot,
// sum_j a_max_j * d_j, the bound implied by paper eq. 1.
func PeakWork(c *model.Cluster) float64 {
	var w float64
	for _, jt := range c.JobTypes {
		w += float64(jt.MaxArrival) * jt.Demand
	}
	return w
}
