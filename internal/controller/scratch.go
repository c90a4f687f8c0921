package controller

import (
	"grefar/internal/model"
	"grefar/internal/transport"
)

// SlotScratch is the working set one slot's gather and scatter need and no
// caller ever sees: the state-report decode destinations, the per-agent
// error and participation marks, the realized integer routing, and the
// allocate requests the scatter sends by pointer.
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
	Routed    [][]int // [site][job type], rows cut from one array, written whole each slot
	Allocs    []transport.Allocate

	// stateReq is the gather's one request, sent to every agent by pointer:
	// boxing a pointer allocates nothing, boxing the struct did for any slot
	// past 255.
	stateReq transport.StateRequest

	// The opening's outcomes (probe, then push) and the resolve's pushes.
	openErrs, pushErrs []error
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
		openErrs:  make([]error, n),
		pushErrs:  make([]error, n),
	}
	routedFlat := make([]int, n*j)
	for i := range s.Routed {
		s.Routed[i] = routedFlat[i*j : (i+1)*j : (i+1)*j]
	}
	return s
}

// Reset clears the marks for a new slot. Reports are left alone: a report is
// only read after its call succeeded, and a successful decode has overwritten
// all of it. So are Allocs and Routed: the scatter writes both whole before
// it sends them.
func (s *SlotScratch) Reset() {
	clear(s.StateErrs)
	clear(s.AllocErrs)
	clear(s.OK)
	clear(s.openErrs)
	clear(s.pushErrs)
}
