package queue

import (
	"fmt"
	"math"
	"slices"

	"grefar/internal/model"
)

// Lengths is a snapshot of all queue backlogs Theta(t): the central queue
// length per job type and the local queue length per (data center, job type)
// pair. It is the input the GreFar per-slot optimization consumes.
type Lengths struct {
	// Central[j] is Q_j(t).
	Central []float64
	// Local[i][j] is q_{i,j}(t).
	Local [][]float64
}

// Sum returns the total backlog across all queues, the quantity bounded by
// P/delta in the proof of Theorem 1.
func (l Lengths) Sum() float64 {
	var s float64
	for _, q := range l.Central {
		s += q
	}
	for i := range l.Local {
		for _, q := range l.Local[i] {
			s += q
		}
	}
	return s
}

// Clone returns a deep copy of the snapshot.
func (l Lengths) Clone() Lengths {
	cp := Lengths{
		Central: append([]float64(nil), l.Central...),
		Local:   make([][]float64, len(l.Local)),
	}
	for i := range l.Local {
		cp.Local[i] = append([]float64(nil), l.Local[i]...)
	}
	return cp
}

// FlowStats summarizes what one Apply call actually moved, including the
// delay samples needed for the paper's "Average Delay in DC #i" curves.
//
// The value Apply returns is storage the Set owns and reuses: it is valid
// until the next Apply on the same Set, and a caller that keeps any of it
// longer copies what it keeps (sim.Engine does, for SlotDetail).
type FlowStats struct {
	// Cells lists the pairs the action asked to move jobs at (h_{i,j} != 0
	// or r_{i,j} != 0), site by site, job types ascending, with what each
	// moved; At(i) is site i's run. Every pair outside it routed and
	// processed nothing, so a sum over the pairs may walk Cells alone.
	Cells []Flow
	// CentralDelaySum[j] is the summed waiting time (in slots, weighted by
	// job count) of the jobs routed out of the central queue this slot.
	CentralDelaySum []float64
	// CentralRouted[j] is the total number of type-j jobs routed this slot.
	CentralRouted []float64
	// LocalDelaySamples[i] lists the (delay, jobs) cohorts processed at data
	// center i this slot, for delay-distribution metrics.
	LocalDelaySamples [][]DelaySample

	// cellOff[i] is where site i's run of Cells starts; cellOff[N] is
	// len(Cells).
	cellOff []int
}

// Flow is what one Apply moved at one eligible (data center, job type) pair,
// after capping at queue content. Its data center is the FlowStats.At run
// it sits in.
type Flow struct {
	Type int
	// Routed is the number of jobs moved from the central queue to the site.
	Routed float64
	// Processed is the number of jobs processed at the site.
	Processed float64
	// DelaySum is the summed waiting time of the jobs processed.
	DelaySum float64

	pair int // the pair's local ledger
}

// At returns data center i's run of Cells, capped at its own length.
func (f *FlowStats) At(i int) []Flow {
	a, b := f.cellOff[i], f.cellOff[i+1]
	return f.Cells[a:b:b]
}

// Matrix spreads one amount of every cell over a fresh N x nJ matrix, zero at
// every other pair, on one backing array with each row capped at its own
// length: the dense form a slot detail carries.
func (f *FlowStats) Matrix(nJ int, amount func(Flow) float64) [][]float64 {
	n := len(f.cellOff) - 1
	flat := make([]float64, n*nJ)
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*nJ : (i+1)*nJ : (i+1)*nJ]
		for _, c := range f.At(i) {
			out[i][c.Type] = amount(c)
		}
	}
	return out
}

// DelaySample is one cohort of jobs that completed with the same waiting
// time.
type DelaySample struct {
	// Delay is the waiting time in slots.
	Delay float64
	// Jobs is the number of jobs in the cohort.
	Jobs float64
}

// TotalRouted returns the total number of jobs routed this slot.
func (f *FlowStats) TotalRouted() float64 {
	var s float64
	for _, r := range f.CentralRouted {
		s += r
	}
	return s
}

// Set tracks the physical queues of the system with per-cohort FIFO ledgers.
// Unlike the Virtual dynamics used by the Lyapunov analysis, a Set caps the
// scheduler's routing and processing decisions at the jobs actually present,
// so queue lengths always equal real backlog and measured delays are exact.
//
// A local ledger exists only for an eligible pair (i in D_j): eqs. (12)-(13)
// define no other local queue. Apply, Restore and SeedRow refuse whatever
// would put jobs anywhere else, and every other pair reads as empty.
type Set struct {
	pairs   model.SitePairs
	central []Ledger // per job type j
	local   []Ledger // per eligible pair, in pairs order

	// lens mirrors every ledger's total in Lengths' layout: lens[j] is Q_j
	// and lens[(i+1)*J+j] is q_{i,j}, zero at every ineligible pair. Whatever
	// changes a total writes the mirror in the same step, so a snapshot is
	// one copy.
	lens []float64
	// view is lens seen as Lengths, its row headers cut once: lens is
	// written in place and never reallocated, so they stay valid.
	view Lengths

	// Apply's result and the scratch behind it, reused call to call.
	// moving lists the ledgers of the pairs the action moves, collected
	// while the action is checked and before the set moves. samples holds
	// every site's delay cohorts back to back, appended through the one
	// closure visit; sampleOff[i] is where site i's run starts.
	flows     FlowStats
	moving    []int
	samples   []DelaySample
	sampleOff []int
	visit     func(delay, jobs float64)
}

// NewSet builds an empty queue set shaped for the cluster.
func NewSet(c *model.Cluster) *Set {
	n, j := c.N(), c.J()
	s := &Set{
		pairs:   c.SitePairs(),
		central: make([]Ledger, j),
	}
	s.local = make([]Ledger, s.pairs.Len())

	// One backing array for the backlog mirror; every row is capped at its
	// own length. So is the flows' per-type pair of vectors.
	s.lens = make([]float64, (n+1)*j)
	s.view = Lengths{Central: s.lens[:j:j], Local: make([][]float64, n)}
	for i := range s.view.Local {
		s.view.Local[i] = s.lens[(i+1)*j : (i+2)*j : (i+2)*j]
	}
	central := make([]float64, 2*j)
	s.flows = FlowStats{
		CentralDelaySum:   central[:j:j],
		CentralRouted:     central[j:],
		LocalDelaySamples: make([][]DelaySample, n),
		cellOff:           make([]int, n+1),
	}
	s.sampleOff = make([]int, n+1)
	s.visit = func(delay, jobs float64) {
		s.samples = append(s.samples, DelaySample{Delay: delay, Jobs: jobs})
	}
	return s
}

// CentralLen returns Q_j(t).
func (s *Set) CentralLen(j int) float64 { return s.central[j].Len() }

// LocalLen returns q_{i,j}(t): zero at an ineligible pair.
func (s *Set) LocalLen(i, j int) float64 {
	if k, ok := slices.BinarySearch(s.pairs.At(i), j); ok {
		return s.local[s.pairs.Off[i]+k].Len()
	}
	return 0
}

// Lengths returns a snapshot of all backlogs. The snapshot owns its memory
// (one backing array shared by Central and every Local row, each row capped
// at its own length) and is never written again by the set.
func (s *Set) Lengths() Lengths {
	n, j := len(s.view.Local), len(s.central)
	flat := append([]float64(nil), s.lens...)
	out := Lengths{
		Central: flat[:j:j],
		Local:   make([][]float64, n),
	}
	for i := range out.Local {
		out.Local[i] = flat[(i+1)*j : (i+2)*j : (i+2)*j]
	}
	return out
}

// View returns the current backlogs without copying them: the Lengths reads
// the set's own mirror of its ledger totals. It is valid until the set's next
// Apply, Arrive, Restore, SeedRow or CopyFrom, which write through it, and it
// must be treated as read-only. A caller that keeps backlogs longer takes Lengths (or Clones the
// view).
func (s *Set) View() Lengths { return s.view }

// Backlog returns the total backlog, bit-identical to Lengths().Sum()
// without taking a snapshot: it sums in the same order and skips only the
// ineligible pairs, each an exact +0.0.
func (s *Set) Backlog() float64 {
	var sum float64
	for _, q := range s.view.Central {
		sum += q
	}
	for i, row := range s.view.Local {
		for _, j := range s.pairs.At(i) {
			sum += row[j]
		}
	}
	return sum
}

// SeedRow replaces data center i's local ledgers with lens[j] jobs of each
// type arriving at slot, one cohort per ledger: exact backlogs whose waiting
// times start from zero. len(lens) must equal the number of job types, and
// lens must be zero wherever the type is not eligible at i; a refused row
// leaves the set as it was.
func (s *Set) SeedRow(i, slot int, lens []float64) error {
	if err := s.CheckRow(i, lens); err != nil {
		return err
	}
	nJ := len(s.central)
	for k, j := range s.pairs.At(i) {
		l := &s.local[s.pairs.Off[i]+k]
		l.entries, l.head, l.total = l.entries[:0], 0, 0
		l.Push(slot, lens[j])
		s.lens[(i+1)*nJ+j] = l.Len()
	}
	return nil
}

// CheckRow reports whether lens could be data center i's local backlogs:
// one per job type, and zero wherever the type is not eligible at i.
func (s *Set) CheckRow(i int, lens []float64) error {
	if len(lens) != len(s.central) {
		return fmt.Errorf("data center %d: got %d local backlogs, want %d", i, len(lens), len(s.central))
	}
	types := s.pairs.At(i)
	for j, q := range lens {
		if len(types) > 0 && types[0] == j {
			types = types[1:]
		} else if q != 0 {
			return fmt.Errorf("data center %d: %v jobs of type %d, which is not eligible there", i, q, j)
		}
	}
	return nil
}

// CopyFrom makes s an independent deep copy of src's queues — every ledger's
// cohorts, head and total, and the backlog mirror — written into s's own
// cohort arrays, so a copy taken every slot allocates only while some
// ledger's longest backlog is still growing. src must be shaped for the same
// cluster. Apply's result is not copied: s's stays whatever its last Apply
// returned.
func (s *Set) CopyFrom(src *Set) {
	copyLedgers(s.central, src.central)
	copyLedgers(s.local, src.local)
	copy(s.lens, src.lens)
}

// copyLedgers makes each dst[k] a deep copy of src[k] into dst's arrays.
func copyLedgers(dst, src []Ledger) {
	for k := range dst {
		d, s := &dst[k], &src[k]
		d.entries = append(d.entries[:0], s.entries...)
		d.head, d.total = s.head, s.total
	}
}

// Arrive records a_j(t) new jobs of each type entering the central queue
// during slot t. len(arrivals) must equal the number of job types. The counts
// are checked in full first, so a rejected call changes nothing.
func (s *Set) Arrive(t int, arrivals []int) error {
	if len(arrivals) != len(s.central) {
		return fmt.Errorf("got %d arrival counts, want %d", len(arrivals), len(s.central))
	}
	for j, a := range arrivals {
		if a < 0 {
			return fmt.Errorf("job type %d: negative arrivals %d", j, a)
		}
	}
	for j, a := range arrivals {
		s.central[j].Push(t, float64(a))
		s.lens[j] = s.central[j].Len()
	}
	return nil
}

// Apply executes the movement part of an action during slot t: first it
// processes h_{i,j} jobs from each local queue (capped at queue content),
// then it routes r_{i,j} jobs from the central queues to the local queues
// (capped so the total routed per type never exceeds Q_j(t)). Routed jobs
// enter the local ledgers at slot t, so a job routed at t and processed at
// t+1 has a local delay of exactly one slot — matching the paper's remark
// that the Always policy exhibits an average delay of about one.
//
// Apply returns what actually moved, in storage the set reuses: the returned
// FlowStats is valid until the next Apply (see FlowStats). It does not
// validate resource feasibility; use model.Action.Validate for that. The
// action's shape, its signs and the eligibility of every pair it moves are
// checked in full before the first ledger — or the previous call's result —
// is touched, so a rejected action leaves the set exactly as it was.
func (s *Set) Apply(t int, act *model.Action) (*FlowStats, error) {
	n, j := len(s.view.Local), len(s.central)
	if len(act.Route) != n || len(act.Process) != n {
		return nil, fmt.Errorf("action shaped for %d data centers, queues have %d", len(act.Route), n)
	}
	// The one pass over every cell: check each sign and match each pair
	// that moves against the site's eligible types, collecting its ledger
	// into scratch. Nothing moves before the whole action has passed.
	moving := s.moving[:0]
	for i := 0; i < n; i++ {
		proc, route := act.Process[i], act.Route[i]
		if len(route) != j || len(proc) != j {
			return nil, fmt.Errorf("data center %d: action has wrong job dimension", i)
		}
		types, k := s.pairs.At(i), 0
		for jj, h := range proc {
			// Most pairs move nothing: one test on both entries' bits
			// passes them over.
			r := route[jj]
			if math.Float64bits(h)|uint64(r) == 0 {
				continue
			}
			if h < 0 {
				return nil, fmt.Errorf("process[%d][%d] = %v is negative", i, jj, h)
			}
			if r < 0 {
				return nil, fmt.Errorf("route[%d][%d] = %v is negative", i, jj, r)
			}
			if h == 0 && r == 0 {
				continue // a -0.0 process
			}
			for k < len(types) && types[k] < jj {
				k++
			}
			if k == len(types) || types[k] != jj {
				return nil, fmt.Errorf("data center %d: job type %d is not eligible there", i, jj)
			}
			moving = append(moving, s.pairs.Off[i]+k)
		}
	}
	s.moving = moving

	fs := &s.flows
	fs.Cells = fs.Cells[:0]
	clear(fs.CentralDelaySum)
	clear(fs.CentralRouted)
	s.samples = s.samples[:0]

	// Process from local queues out of the system, site by site, recording
	// a cell for every pair that moves; a pair with nothing to process moves
	// nothing there and records nothing.
	m := 0
	for i := 0; i < n; i++ {
		fs.cellOff[i], s.sampleOff[i] = len(fs.Cells), len(s.samples)
		for ; m < len(moving) && moving[m] < s.pairs.Off[i+1]; m++ {
			f := Flow{Type: s.pairs.Types[moving[m]], pair: moving[m]}
			if h := act.Process[i][f.Type]; h != 0 {
				l := &s.local[f.pair]
				f.Processed, f.DelaySum = l.PopVisit(t, h, s.visit)
				s.lens[(i+1)*j+f.Type] = l.Len()
			}
			fs.Cells = append(fs.Cells, f)
		}
	}
	fs.cellOff[n], s.sampleOff[n] = len(fs.Cells), len(s.samples)
	// Cut the per-site runs only now: the buffer may have moved while it grew.
	for i := 0; i < n; i++ {
		a, b := s.sampleOff[i], s.sampleOff[i+1]
		fs.LocalDelaySamples[i] = s.samples[a:b:b]
	}

	// Route from central queues into local queues. Routing is capped at the
	// central queue content; when the action over-asks across several data
	// centers the cap is consumed in data-center order: the cells, site by
	// site, still visit each type's central ledger by ascending site.
	for i := 0; i < n; i++ {
		for k := fs.cellOff[i]; k < fs.cellOff[i+1]; k++ {
			f := &fs.Cells[k]
			r := act.Route[i][f.Type]
			if r == 0 {
				continue
			}
			popped, delay := s.central[f.Type].Pop(t, float64(r))
			s.lens[f.Type] = s.central[f.Type].Len()
			if popped <= 0 {
				continue
			}
			l := &s.local[f.pair]
			l.Push(t, popped)
			s.lens[(i+1)*j+f.Type] = l.Len()
			f.Routed = popped
			fs.CentralRouted[f.Type] += popped
			fs.CentralDelaySum[f.Type] += delay
		}
	}
	return fs, nil
}

// Virtual applies the queue dynamics (12)-(13) literally, with the max[.,0]
// clipping of the analysis: the scheduler may nominally route or process more
// than is queued, and the excess simply vanishes. The Lyapunov proof bounds
// these virtual lengths; the property tests compare them against the capped
// Set to show capping never increases backlog.
type Virtual struct {
	// Central[j] is Q_j(t).
	Central []float64
	// Local[i][j] is q_{i,j}(t).
	Local [][]float64
}

// NewVirtual builds a zero virtual queue state shaped for the cluster.
func NewVirtual(c *model.Cluster) *Virtual {
	v := &Virtual{
		Central: make([]float64, c.J()),
		Local:   make([][]float64, c.N()),
	}
	for i := range v.Local {
		v.Local[i] = make([]float64, c.J())
	}
	return v
}

// Step advances the dynamics one slot under the given action and arrivals:
// exactly equations (12) and (13) of the paper.
func (v *Virtual) Step(act *model.Action, arrivals []int) {
	for j := range v.Central {
		var routed float64
		for i := range act.Route {
			routed += float64(act.Route[i][j])
		}
		q := v.Central[j] - routed
		if q < 0 {
			q = 0
		}
		v.Central[j] = q + float64(arrivals[j])
	}
	for i := range v.Local {
		for j := range v.Local[i] {
			q := v.Local[i][j] - act.Process[i][j]
			if q < 0 {
				q = 0
			}
			v.Local[i][j] = q + float64(act.Route[i][j])
		}
	}
}

// Lengths returns a snapshot of the virtual backlogs.
func (v *Virtual) Lengths() Lengths {
	out := Lengths{
		Central: append([]float64(nil), v.Central...),
		Local:   make([][]float64, len(v.Local)),
	}
	for i := range v.Local {
		out.Local[i] = append([]float64(nil), v.Local[i]...)
	}
	return out
}
