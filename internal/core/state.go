package core

import (
	"fmt"
	"math"
)

// SchedulerState is the resumable cross-slot state of a GreFar scheduler —
// everything a scheduler remembers between Decide calls beyond its static
// configuration. Exporting it before shutdown and restoring it into a
// freshly constructed scheduler (same cluster, same Config) makes the new
// instance's decision stream byte-identical to the uninterrupted one, warm
// starts included. All fields are exported so the state serializes with
// encoding/gob.
//
// The state is intentionally small: the per-slot solver workspace
// (decideScratch) is derived and rebuilt by New; only the cross-slot memory
// listed here is durable.
//
// States written before the decomposed solver was removed may also carry its
// ADMM duals as DecomposedU and DecomposedZ. gob drops fields the type no
// longer has, so such a checkpoint decodes and restores without them: the
// warm iterate it carries is the dense-layout one every kind wrote.
type SchedulerState struct {
	// Warm is the previous slot's (h, b) iterate in the dense slotLayout
	// order, the seed of the next warm-started solve. Decide solves on the
	// compact layout but keeps this one, so every state written under any
	// former solver kind restores. Nil for schedulers whose configuration
	// never reaches the convex path (V = 0, or beta = 0 with a linear
	// tariff).
	Warm []float64
	// WarmValid reports whether Warm holds a real iterate (false before the
	// first convex solve).
	WarmValid bool
	// WarmHits, WarmRepairs, and WarmFallbacks are the cumulative warm-start
	// outcome counters surfaced in telemetry SolveStats.
	WarmHits, WarmRepairs, WarmFallbacks int
	// OptsReported latches whether the effective solver options were already
	// attached to a telemetry event, so a restored scheduler does not attach
	// them a second time mid-stream.
	OptsReported bool
}

// ExportState captures the scheduler's resumable cross-slot state. The
// returned state owns its memory; the scheduler may keep deciding afterwards
// without invalidating it.
func (g *GreFar) ExportState() *SchedulerState {
	st := &SchedulerState{
		WarmValid:     g.ws.warmValid,
		WarmHits:      g.warmHits,
		WarmRepairs:   g.warmRepairs,
		WarmFallbacks: g.warmFallbacks,
		OptsReported:  g.optsReported,
	}
	if g.ws.warm != nil {
		st.Warm = append([]float64(nil), g.ws.warm...)
	}
	return st
}

// RestoreState replaces the scheduler's cross-slot state with a previously
// exported one. The scheduler must have been constructed for the same
// cluster shape (the warm iterate's length is checked against the solver
// layout) and should carry the same configuration, or the restored warm
// iterate seeds a different optimization than the one it came from. A state
// is checked in full before any of it is copied, so a rejected restore leaves
// the scheduler exactly as it was. A nil state is a no-op.
func (g *GreFar) RestoreState(st *SchedulerState) error {
	if st == nil {
		return nil
	}
	// A linear-slot compact scheduler used to export an all-zero iterate it
	// never used; such a state (iterate present, not valid) still restores
	// into a scheduler without a convex path.
	restoreWarm := st.Warm != nil && (st.WarmValid || g.ws.warm != nil)
	if restoreWarm {
		if g.ws.warm == nil {
			return fmt.Errorf("%w: state carries a warm iterate but this configuration has no convex path", ErrBadConfig)
		}
		if len(st.Warm) != len(g.ws.warm) {
			return fmt.Errorf("%w: warm iterate has %d variables, solver layout has %d",
				ErrBadConfig, len(st.Warm), len(g.ws.warm))
		}
		for i, v := range st.Warm {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: warm iterate variable %d is not finite", ErrBadConfig, i)
			}
		}
		// No scheduler exports anything but zero on a pair whose job type may
		// not run at that site — (14) has no variable there — and the compact
		// representation relies on it: its repair and write-back walk eligible
		// pairs only, so a value planted here would ride along unseen.
		c := g.cluster
		for j := range c.JobTypes {
			jt := &c.JobTypes[j]
			for i := 0; i < c.N(); i++ {
				if v := st.Warm[g.ws.sparse.l.hIndex(i, j)]; v != 0 && !jt.EligibleSet(i) {
					return fmt.Errorf("%w: warm iterate carries %v on job type %d at data center %d, where it is not eligible",
						ErrBadConfig, v, j, i)
				}
			}
		}
	}
	if st.WarmValid && st.Warm == nil {
		return fmt.Errorf("%w: state marks a warm iterate valid but carries none", ErrBadConfig)
	}

	if restoreWarm {
		copy(g.ws.warm, st.Warm)
	}
	g.ws.warmValid = st.WarmValid
	g.warmHits = st.WarmHits
	g.warmRepairs = st.WarmRepairs
	g.warmFallbacks = st.WarmFallbacks
	g.optsReported = st.OptsReported
	return nil
}
