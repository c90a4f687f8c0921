package queue

import (
	"fmt"
	"math"

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
	// Cells lists, in row-major order as flat indices i*J+j, the pairs the
	// action asked to process (h_{i,j} != 0). Processed and LocalDelaySum
	// are zero outside it, so a sum over them may walk Cells alone.
	Cells []int
	// Routed[i][j] is the number of type-j jobs actually moved from the
	// central queue to data center i (after capping at queue content).
	Routed [][]float64
	// Processed[i][j] is the number of type-j jobs actually processed at
	// data center i (after capping at queue content).
	Processed [][]float64
	// CentralDelaySum[j] is the summed waiting time (in slots, weighted by
	// job count) of the jobs routed out of the central queue this slot.
	CentralDelaySum []float64
	// CentralRouted[j] is the total number of type-j jobs routed this slot.
	CentralRouted []float64
	// LocalDelaySum[i][j] is the summed waiting time of the jobs processed
	// at data center i this slot.
	LocalDelaySum [][]float64
	// LocalDelaySamples[i] lists the (delay, jobs) cohorts processed at data
	// center i this slot, for delay-distribution metrics.
	LocalDelaySamples [][]DelaySample
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
type Set struct {
	cluster *model.Cluster
	central []Ledger   // per job type j
	local   [][]Ledger // per data center i, job type j

	// lens mirrors every ledger's total in Lengths' layout: lens[j] is Q_j
	// and lens[(i+1)*J+j] is q_{i,j}. Whatever changes a total writes the
	// mirror in the same step, so a snapshot is one copy.
	lens []float64
	// view is lens seen as Lengths, its row headers cut once: lens is
	// written in place and never reallocated, so they stay valid.
	view Lengths

	// Apply's result and the scratch behind it, reused call to call. The
	// three N x J matrices and the two per-type vectors of flows share the
	// backing array flowFlat. flows.Cells and routes list the process and
	// route cells (flat index i*J+j) the previous call moved, so the next one
	// clears those and not N*J zeros; cellsNext and routesNext are where the
	// next call collects its own before it swaps them in. samples holds every
	// site's delay cohorts back to back, appended through the one closure
	// visit; sampleOff[i] is where site i's run starts.
	flows      FlowStats
	flowFlat   []float64
	routes     []int
	cellsNext  []int
	routesNext []int
	samples    []DelaySample
	sampleOff  []int
	visit      func(delay, jobs float64)
}

// NewSet builds an empty queue set shaped for the cluster.
func NewSet(c *model.Cluster) *Set {
	s := &Set{
		cluster: c,
		central: make([]Ledger, c.J()),
		local:   make([][]Ledger, c.N()),
	}
	for i := range s.local {
		s.local[i] = make([]Ledger, c.J())
	}

	// One backing array for the three N x J matrices and the two per-type
	// vectors; every row is capped at its own length.
	n, j := c.N(), c.J()
	s.lens = make([]float64, (n+1)*j)
	s.view = Lengths{Central: s.lens[:j:j], Local: make([][]float64, n)}
	for i := range s.view.Local {
		s.view.Local[i] = s.lens[(i+1)*j : (i+2)*j : (i+2)*j]
	}
	s.flowFlat = make([]float64, (3*n+2)*j)
	rows := make([][]float64, 3*n)
	for r := range rows {
		rows[r] = s.flowFlat[r*j : (r+1)*j : (r+1)*j]
	}
	s.flows = FlowStats{
		Routed:            rows[:n:n],
		Processed:         rows[n : 2*n : 2*n],
		LocalDelaySum:     rows[2*n:],
		CentralDelaySum:   s.flowFlat[3*n*j : (3*n+1)*j : (3*n+1)*j],
		CentralRouted:     s.flowFlat[(3*n+1)*j:],
		LocalDelaySamples: make([][]DelaySample, n),
	}
	s.sampleOff = make([]int, n+1)
	s.visit = func(delay, jobs float64) {
		s.samples = append(s.samples, DelaySample{Delay: delay, Jobs: jobs})
	}
	return s
}

// CentralLen returns Q_j(t).
func (s *Set) CentralLen(j int) float64 { return s.central[j].Len() }

// LocalLen returns q_{i,j}(t).
func (s *Set) LocalLen(i, j int) float64 { return s.local[i][j].Len() }

// Lengths returns a snapshot of all backlogs. The snapshot owns its memory
// (one backing array shared by Central and every Local row, each row capped
// at its own length) and is never written again by the set.
func (s *Set) Lengths() Lengths {
	n, j := len(s.local), len(s.central)
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

// Backlog returns the total backlog, bit-identical to Lengths().Sum() (it
// sums in the same order) without taking a snapshot.
func (s *Set) Backlog() float64 {
	var sum float64
	for _, q := range s.lens {
		sum += q
	}
	return sum
}

// SeedRow replaces data center i's local ledgers with lens[j] jobs of each
// type arriving at slot, one cohort per ledger: exact backlogs whose waiting
// times start from zero. len(lens) must equal the number of job types.
func (s *Set) SeedRow(i, slot int, lens []float64) {
	nJ := len(s.central)
	for j := range s.local[i] {
		l := &s.local[i][j]
		l.entries, l.head, l.total = l.entries[:0], 0, 0
		l.Push(slot, lens[j])
		s.lens[(i+1)*nJ+j] = l.Len()
	}
}

// CopyFrom makes s an independent deep copy of src's queues — every ledger's
// cohorts, head and total, and the backlog mirror — written into s's own
// cohort arrays, so a copy taken every slot allocates only while some
// ledger's longest backlog is still growing. src must be shaped for the same
// cluster. Apply's result is not copied: s's stays whatever its last Apply
// returned.
func (s *Set) CopyFrom(src *Set) {
	copyLedgers(s.central, src.central)
	for i := range s.local {
		copyLedgers(s.local[i], src.local[i])
	}
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
// action's shape and signs are checked in full before the first ledger — or
// the previous call's result — is touched, so a rejected action leaves the
// set exactly as it was.
func (s *Set) Apply(t int, act *model.Action) (*FlowStats, error) {
	n, j := len(s.local), len(s.central)
	if len(act.Route) != n || len(act.Process) != n {
		return nil, fmt.Errorf("action shaped for %d data centers, queues have %d", len(act.Route), n)
	}
	// The one pass over every cell: check each sign and collect the pairs
	// that move, row-major, into scratch. Nothing is swapped in before the
	// whole action has passed.
	cells, routes := s.cellsNext[:0], s.routesNext[:0]
	for i := 0; i < n; i++ {
		proc, route := act.Process[i], act.Route[i]
		if len(route) != j || len(proc) != j {
			return nil, fmt.Errorf("data center %d: action has wrong job dimension", i)
		}
		for jj, h := range proc {
			// Most pairs move nothing: one test on both entries' bits
			// passes them over.
			if math.Float64bits(h)|uint64(route[jj]) == 0 {
				continue
			}
			if h != 0 {
				if h < 0 {
					return nil, fmt.Errorf("process[%d][%d] = %v is negative", i, jj, h)
				}
				cells = append(cells, i*j+jj)
			}
			if r := route[jj]; r != 0 {
				if r < 0 {
					return nil, fmt.Errorf("route[%d][%d] = %v is negative", i, jj, r)
				}
				routes = append(routes, i*j+jj)
			}
		}
	}

	// Back to all-zero: only the cells the previous call wrote.
	fs := &s.flows
	for _, cell := range fs.Cells {
		s.flowFlat[n*j+cell], s.flowFlat[2*n*j+cell] = 0, 0
	}
	for _, cell := range s.routes {
		s.flowFlat[cell] = 0
	}
	for jj := 0; jj < j; jj++ {
		fs.CentralDelaySum[jj], fs.CentralRouted[jj] = 0, 0
	}
	s.samples = s.samples[:0]
	fs.Cells, s.cellsNext = cells, fs.Cells[:0]
	s.routes, s.routesNext = routes, s.routes[:0]

	// Process from local queues out of the system, site by site; a pair
	// with nothing to process moves nothing and records nothing.
	k := 0
	for i := 0; i < n; i++ {
		s.sampleOff[i] = len(s.samples)
		for ; k < len(cells) && cells[k] < (i+1)*j; k++ {
			jj := cells[k] - i*j
			l := &s.local[i][jj]
			fs.Processed[i][jj], fs.LocalDelaySum[i][jj] = l.PopVisit(t, act.Process[i][jj], s.visit)
			s.lens[j+cells[k]] = l.Len()
		}
	}
	s.sampleOff[n] = len(s.samples)
	// Cut the per-site runs only now: the buffer may have moved while it grew.
	for i := 0; i < n; i++ {
		a, b := s.sampleOff[i], s.sampleOff[i+1]
		fs.LocalDelaySamples[i] = s.samples[a:b:b]
	}

	// Route from central queues into local queues. Routing is capped at the
	// central queue content; when the action over-asks across several data
	// centers the cap is consumed in data-center order: the row-major route
	// list still visits each type's central ledger by ascending site.
	for _, cell := range routes {
		i, jj := cell/j, cell%j
		popped, delay := s.central[jj].Pop(t, float64(act.Route[i][jj]))
		s.lens[jj] = s.central[jj].Len()
		if popped <= 0 {
			continue
		}
		l := &s.local[i][jj]
		l.Push(t, popped)
		s.lens[j+cell] = l.Len()
		fs.Routed[i][jj] = popped
		fs.CentralRouted[jj] += popped
		fs.CentralDelaySum[jj] += delay
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
