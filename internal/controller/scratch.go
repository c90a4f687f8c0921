package controller

import (
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/transport"
)

// SlotScratch is the working set one slot's gather and scatter need and no
// caller ever sees: the state-report decode destinations, the per-agent
// error and participation marks, the realized integer routing, the allocate
// requests the scatter sends by pointer, the backlogs the decision and the
// slot event read, and the shadow replay's processed amounts and delay sums.
// The control loop owns one and Resets it at the top of every slot instead of
// reallocating O(N) slices per tick; what a detail observer keeps is made
// fresh instead (see RunSlotContext).
// Reports keep their Avail/QueueLens backing arrays across slots — Unmarshal
// overwrites every field and reuses capacity — so nothing read out of a
// report may be retained past the slot.
type SlotScratch struct {
	Reports   []transport.StateReport
	StateErrs []error
	AllocErrs []error
	OK        []bool
	Routed    [][]int // [site][job type], rows cut from routedFlat
	Allocs    []transport.Allocate

	// Pre and Post are the central and shadow backlogs before the decision
	// and after the slot; Processed is the shadow replay's popped amounts,
	// [site][job type], and Delays one site's delay sums, reused site by
	// site. Each is written whole before it is read.
	Pre, Post queue.Lengths
	Processed [][]float64
	Delays    []float64

	routedFlat []int
	// stateReq is the gather's one request, sent to every agent by pointer:
	// boxing a pointer allocates nothing, boxing the struct did for any slot
	// past 255.
	stateReq transport.StateRequest
}

// NewSlotScratch sizes a scratch set for the cluster.
func NewSlotScratch(c *model.Cluster) *SlotScratch {
	n, j := c.N(), c.J()
	s := &SlotScratch{
		Reports:   make([]transport.StateReport, n),
		StateErrs: make([]error, n),
		AllocErrs: make([]error, n),
		OK:        make([]bool, n),
		Routed:    make([][]int, n),
		Allocs:    make([]transport.Allocate, n),

		Pre:       queue.Lengths{Central: make([]float64, j), Local: newRows(n, j)},
		Post:      queue.Lengths{Central: make([]float64, j), Local: newRows(n, j)},
		Processed: newRows(n, j),
		Delays:    make([]float64, j),

		routedFlat: make([]int, n*j),
	}
	for i := range s.Routed {
		s.Routed[i] = s.routedFlat[i*j : (i+1)*j : (i+1)*j]
	}
	return s
}

// Reset clears the marks and the routing for a new slot. Reports are left
// alone: a report is only read after its call succeeded, and a successful
// decode has overwritten all of it. So are Allocs: the scatter writes a
// request whole before it sends it.
func (s *SlotScratch) Reset() {
	clear(s.StateErrs)
	clear(s.AllocErrs)
	clear(s.OK)
	clear(s.routedFlat)
}

// newRows returns an n x j matrix whose rows are cut from one fresh backing
// array: what a slot hands to observers and callers is theirs to keep, but it
// need not cost an allocation per site.
func newRows(n, j int) [][]float64 {
	flat := make([]float64, n*j)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*j : (i+1)*j : (i+1)*j]
	}
	return rows
}
