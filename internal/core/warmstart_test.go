package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/solve"
	"grefar/internal/telemetry"
)

// warmTestSlotFeasible verifies a flat (h, b) vector against the scheduling
// polytope with the model's feasibility tolerance; the warm-start tests use
// it on repaired iterates before handing them to the solver.
func warmTestSlotFeasible(t *testing.T, c *model.Cluster, st *model.State, hCap [][]float64, l slotLayout, x []float64) {
	t.Helper()
	const tol = 1e-9
	for i := 0; i < c.N(); i++ {
		var work, capWork float64
		for j := 0; j < c.J(); j++ {
			h := x[l.hIndex(i, j)]
			if h < -tol || h > hCap[i][j]+tol {
				t.Fatalf("site %d job %d: h=%v outside [0, %v]", i, j, h, hCap[i][j])
			}
			work += c.JobTypes[j].Demand * h
		}
		for k, stype := range c.DataCenters[i].Servers {
			b := x[l.bOff[i]+k]
			if b < -tol || b > st.Avail[i][k]+tol {
				t.Fatalf("site %d server %d: b=%v outside [0, %v]", i, k, b, st.Avail[i][k])
			}
			capWork += stype.Speed * b
		}
		if work > capWork*(1+1e-9)+tol {
			t.Fatalf("site %d: work %v exceeds capacity %v", i, work, capWork)
		}
		for r := 0; r < c.Aux(); r++ {
			var usage float64
			for j := 0; j < c.J(); j++ {
				if r < len(c.JobTypes[j].AuxDemand) {
					usage += c.JobTypes[j].AuxDemand[r] * x[l.hIndex(i, j)]
				}
			}
			if capR := c.DataCenters[i].AuxCapacity[r]; usage > capR*(1+1e-9)+tol {
				t.Fatalf("site %d aux %d: usage %v exceeds capacity %v", i, r, usage, capR)
			}
		}
	}
}

// TestRepairWarmStartOutcomes unit-tests the repair state machine of
// sparseSlot.repairWarm: a feasible iterate passes untouched, box and
// capacity violations are repaired into feasibility, a capacity collapse or
// non-finite entry forces the fallback.
func TestRepairWarmStartOutcomes(t *testing.T) {
	c := refCluster(t)
	l := newSlotLayout(c)
	cfg := Config{V: 7.5, Beta: 100}
	st := stateWith(c, 10, []float64{0.4, 0.5, 0.6})
	q := randomLengths(rand.New(rand.NewSource(7)), c, 30)
	_, _, hCap := SlotCoefficients(c, cfg, st, q)
	// repair refreshes the compact index against the iterate, as Decide
	// does, and repairs it against st.
	sp := newSparseSlot(c)
	repair := func(st *model.State, x []float64) warmOutcome {
		sp.refresh(cfg, st, q, x)
		return sp.repairWarm(st, x)
	}

	feasible := make([]float64, l.total)
	for i := 0; i < c.N(); i++ {
		for k := 0; k < c.K(i); k++ {
			feasible[l.bOff[i]+k] = st.Avail[i][k] / 2
		}
	}
	x := append([]float64(nil), feasible...)
	if got := repair(st, x); got != warmHit {
		t.Errorf("feasible iterate: outcome %v, want warmHit", got)
	}
	for j := range x {
		if x[j] != feasible[j] {
			t.Fatalf("warmHit mutated the iterate at %d: %v -> %v", j, feasible[j], x[j])
		}
	}

	// Box violations: h above its cap, b above availability, negatives.
	x = append([]float64(nil), feasible...)
	x[l.hIndex(0, 0)] = hCap[0][0] + 50
	x[l.bOff[1]] = st.Avail[1][0] + 3
	x[l.hIndex(2, 1)] = -4
	if got := repair(st, x); got != warmRepaired {
		t.Errorf("box violations: outcome %v, want warmRepaired", got)
	}
	warmTestSlotFeasible(t, c, st, hCap, l, x)

	// Capacity violation within the collapse threshold: all servers busy at
	// the previous slot, availability halves, h stays high.
	x = make([]float64, l.total)
	for i := 0; i < c.N(); i++ {
		cap := 0.0
		for k, stype := range c.DataCenters[i].Servers {
			x[l.bOff[i]+k] = st.Avail[i][k]
			cap += stype.Speed * st.Avail[i][k]
		}
		// Spread work filling ~150% of current capacity over the job types
		// (bounded by the per-pair caps so only the coupling row binds).
		for j := 0; j < c.J(); j++ {
			h := 1.5 * cap / (c.JobTypes[j].Demand * float64(c.J()))
			if h > hCap[i][j] {
				h = hCap[i][j]
			}
			x[l.hIndex(i, j)] = h
		}
	}
	switch got := repair(st, x); got {
	case warmRepaired, warmHit:
		warmTestSlotFeasible(t, c, st, hCap, l, x)
	default:
		t.Errorf("capacity overflow: outcome %v, want warmRepaired or warmHit", got)
	}

	// Availability collapse: the iterate uses 10x the remaining capacity.
	collapsed := st.Clone()
	for i := range collapsed.Avail {
		for k := range collapsed.Avail[i] {
			collapsed.Avail[i][k] = 0.01
		}
	}
	x = make([]float64, l.total)
	for i := 0; i < c.N(); i++ {
		for j := 0; j < c.J(); j++ {
			x[l.hIndex(i, j)] = hCap[i][j]
		}
		for k := 0; k < c.K(i); k++ {
			x[l.bOff[i]+k] = st.Avail[i][k]
		}
	}
	hasWork := false
	for i := 0; i < c.N(); i++ {
		for j := 0; j < c.J(); j++ {
			if x[l.hIndex(i, j)] > 0 {
				hasWork = true
			}
		}
	}
	if !hasWork {
		t.Fatal("test setup: no work in the iterate")
	}
	if got := repair(collapsed, x); got != warmFallback {
		t.Errorf("availability collapse: outcome %v, want warmFallback", got)
	}

	// Non-finite entries always fall back.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x = append([]float64(nil), feasible...)
		x[l.hIndex(1, 1)] = bad
		if got := repair(st, x); got != warmFallback {
			t.Errorf("entry %v: outcome %v, want warmFallback", bad, got)
		}
	}
}

// collectSolves records the SolveStats of every Decide-origin event.
func collectSolves(dst *[]telemetry.SolveStats) telemetry.SlotObserver {
	return telemetry.ObserverFunc(func(ev telemetry.SlotEvent) {
		if ev.Solve != nil {
			*dst = append(*dst, *ev.Solve)
		}
	})
}

// coldDecide decides one slot on a fresh scheduler, whose first convex
// solve starts from zero: the cold reference a warm-started decision is held
// to.
func coldDecide(t *testing.T, c *model.Cluster, cfg Config, slot int, st *model.State, q queue.Lengths) *model.Action {
	t.Helper()
	cfg.Observer = nil
	g, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	act, err := g.Decide(slot, st, q)
	if err != nil {
		t.Fatalf("slot %d cold: %v", slot, err)
	}
	return act
}

// TestWarmStartShrunkAvailability drives a scheduler through an availability
// drop sharp enough that the saved iterate violates the new caps: the
// repaired start must still produce a valid action whose objective matches a
// fresh scheduler's cold first slot to within the cross-check tolerance.
func TestWarmStartShrunkAvailability(t *testing.T) {
	c := refCluster(t)
	// A tight tolerance makes parity measure the warm start, not residual
	// solver error.
	cfg := Config{V: 7.5, Beta: 100}
	cfg.FW.Tol = 1e-9
	var stats []telemetry.SolveStats
	cfg.Observer = collectSolves(&stats)
	warm, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(99))
	gamma := AccountWeights(c)
	prices := []float64{0.45, 0.55, 0.65}
	// Slot 0: plentiful servers, heavy backlog -> the iterate saturates.
	// Slot 1: availability drops to 30% -> box and capacity repairs fire.
	avails := []float64{60, 18}
	for slot, avail := range avails {
		st := stateWith(c, avail, prices)
		q := randomLengths(rng, c, 80)
		wAct, err := warm.Decide(slot, st, q)
		if err != nil {
			t.Fatalf("slot %d warm: %v", slot, err)
		}
		if err := wAct.Validate(c, st); err != nil {
			t.Fatalf("slot %d: warm action invalid: %v", slot, err)
		}
		cAct := coldDecide(t, c, cfg, slot, st, q)
		wObj := DriftPlusPenalty(c, cfg, st, q, wAct, gamma)
		cObj := DriftPlusPenalty(c, cfg, st, q, cAct, gamma)
		rel := math.Abs(wObj-cObj) / math.Max(1, math.Max(math.Abs(wObj), math.Abs(cObj)))
		if rel > 1e-6 {
			t.Errorf("slot %d: warm objective %v vs cold %v (rel %.3g)", slot, wObj, cObj, rel)
		}
	}
	if len(stats) != 2 {
		t.Fatalf("got %d solve stats, want 2", len(stats))
	}
	if stats[0].Warm != telemetry.WarmFallback {
		t.Errorf("slot 0 warm outcome %q, want %q (no previous iterate)", stats[0].Warm, telemetry.WarmFallback)
	}
	if stats[1].Warm != telemetry.WarmRepaired {
		t.Errorf("slot 1 warm outcome %q, want %q (availability shrank)", stats[1].Warm, telemetry.WarmRepaired)
	}
}

// TestWarmVsColdParity runs a longer randomized slot sequence, asserting
// per-slot objective parity with a fresh scheduler's cold first slot on the
// same input and that the telemetry counters account for every slot.
func TestWarmVsColdParity(t *testing.T) {
	const slots = 30
	c := refCluster(t)
	// Same solver and tight tolerance on both sides, so the only difference
	// is the starting point: any objective drift then isolates a warm-start
	// bug rather than a convergence-rate artifact.
	cfg := Config{V: 7.5, Beta: 100}
	cfg.FW.Tol = 1e-9
	var stats []telemetry.SolveStats
	cfg.Observer = collectSolves(&stats)
	warm, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(2012))
	gamma := AccountWeights(c)
	for slot := 0; slot < slots; slot++ {
		avail := 10 + 50*rng.Float64()
		st := stateWith(c, avail, []float64{0.3 + rng.Float64(), 0.3 + rng.Float64(), 0.3 + rng.Float64()})
		q := randomLengths(rng, c, 60)
		wAct, err := warm.Decide(slot, st, q)
		if err != nil {
			t.Fatalf("slot %d warm: %v", slot, err)
		}
		if err := wAct.Validate(c, st); err != nil {
			t.Fatalf("slot %d: warm action invalid: %v", slot, err)
		}
		cAct := coldDecide(t, c, cfg, slot, st, q)
		wObj := DriftPlusPenalty(c, cfg, st, q, wAct, gamma)
		cObj := DriftPlusPenalty(c, cfg, st, q, cAct, gamma)
		rel := math.Abs(wObj-cObj) / math.Max(1, math.Max(math.Abs(wObj), math.Abs(cObj)))
		if rel > 1e-6 {
			t.Errorf("slot %d: warm objective %v vs cold %v (rel %.3g)", slot, wObj, cObj, rel)
		}
	}

	if len(stats) != slots {
		t.Fatalf("got %d solve stats, want %d", len(stats), slots)
	}
	last := stats[slots-1]
	if got := last.WarmHits + last.WarmRepairs + last.WarmFallbacks; got != slots {
		t.Errorf("counters sum to %d, want %d (hits=%d repairs=%d fallbacks=%d)",
			got, slots, last.WarmHits, last.WarmRepairs, last.WarmFallbacks)
	}
	if last.WarmFallbacks == slots {
		t.Error("warm start never engaged: every slot fell back")
	}
	if stats[0].Warm != telemetry.WarmFallback {
		t.Errorf("slot 0 outcome %q, want %q", stats[0].Warm, telemetry.WarmFallback)
	}
	for s, st := range stats {
		if st.Warm == "" {
			t.Errorf("slot %d: warm outcome missing", s)
		}
	}
}

// TestSolverOptionsReportedOnce pins the once-per-scheduler options
// surfacing: a scheduler with non-default solver knobs attaches the
// effective Frank-Wolfe options to its first event only; a default-configured scheduler never attaches them (golden traces
// depend on this), though its convex slots do carry their warm-start fields.
func TestSolverOptionsReportedOnce(t *testing.T) {
	c := refCluster(t)
	st := stateWith(c, 40, []float64{0.4, 0.5, 0.6})
	rng := rand.New(rand.NewSource(3))

	var tuned []telemetry.SolveStats
	cfg := Config{V: 7.5, Beta: 100}
	cfg.FW.Tol = 1e-9
	cfg.Observer = collectSolves(&tuned)
	g, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 3; slot++ {
		if _, err := g.Decide(slot, st, randomLengths(rng, c, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if len(tuned) != 3 {
		t.Fatalf("got %d events, want 3", len(tuned))
	}
	if tuned[0].Options == nil {
		t.Fatal("first event missing effective options")
	}
	if want := (telemetry.SolverOptions{MaxIters: 150, Tol: 1e-9}); *tuned[0].Options != want {
		t.Errorf("options %+v, want %+v: the configured tolerance and the default MaxIters", *tuned[0].Options, want)
	}
	if tuned[1].Options != nil || tuned[2].Options != nil {
		t.Error("options attached to more than the first event")
	}

	var plain []telemetry.SolveStats
	g2, err := New(c, Config{V: 7.5, Beta: 100, Observer: collectSolves(&plain)})
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 2; slot++ {
		if _, err := g2.Decide(slot, st, randomLengths(rng, c, 40)); err != nil {
			t.Fatal(err)
		}
	}
	for s, ev := range plain {
		if ev.Options != nil {
			t.Errorf("default scheduler event %d carries options", s)
		}
		if ev.Warm == "" || ev.WarmHits+ev.WarmRepairs+ev.WarmFallbacks != s+1 {
			t.Errorf("default scheduler event %d lacks its warm-start fields: %+v", s, ev)
		}
	}

	// The linear slot path reports no options even with solver knobs set,
	// and has no warm start to report either.
	var linear []telemetry.SolveStats
	g3, err := New(c, Config{V: 7.5, FW: cfg.FW, Observer: collectSolves(&linear)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g3.Decide(0, st, randomLengths(rng, c, 40)); err != nil {
		t.Fatal(err)
	}
	if len(linear) != 1 || linear[0].Options != nil || linear[0].Warm != "" {
		t.Errorf("linear-path events %+v, want one without options or warm outcome", linear)
	}
}

// TestNewRejectsBadFWOptions pins the ErrBadConfig validation of the solver
// knobs at construction.
func TestNewRejectsBadFWOptions(t *testing.T) {
	c := refCluster(t)
	bad := []Config{
		{V: 1, FW: solve.FWOptions{MaxIters: -1}},
		{V: 1, FW: solve.FWOptions{Tol: -1e-9}},
		{V: 1, FW: solve.FWOptions{Tol: math.NaN()}},
	}
	for n, cfg := range bad {
		_, err := New(c, cfg)
		if err == nil {
			t.Errorf("case %d: bad FW options accepted", n)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: error %v does not wrap ErrBadConfig", n, err)
		}
	}
	if _, err := New(c, Config{V: 1, FW: solve.FWOptions{MaxIters: 500, Tol: 1e-9}}); err != nil {
		t.Errorf("valid FW options rejected: %v", err)
	}
}

// FuzzWarmRepair feeds arbitrary availability levels and iterates through
// sparseSlot.repairWarm and checks its contract, on the reference cluster
// and on one with an auxiliary resource row: a non-fallback result is
// feasible for the current slot (auxiliary rows included), a warmHit left the
// iterate untouched, and the repair is idempotent (repairing a repaired
// iterate is a hit).
func FuzzWarmRepair(f *testing.F) {
	f.Add([]byte{10, 10, 10, 50, 50, 50, 50, 50, 50, 50, 50, 50})
	f.Add([]byte{1, 200, 3, 255, 0, 255, 0, 255, 0, 128, 64, 32})
	f.Add([]byte{0, 0, 0, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		checkWarmRepair(t, model.NewReferenceCluster(), data)
		checkWarmRepair(t, auxCluster(), data)
	})
}

// checkWarmRepair is FuzzWarmRepair's contract on one cluster.
func checkWarmRepair(t *testing.T, c *model.Cluster, data []byte) {
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	l := newSlotLayout(c)

	// Decode: one byte per (site, server-type) availability, then one byte
	// per flat variable; missing bytes read as zero. A pair whose job type
	// may not run at the site keeps an exact zero, as in every iterate a
	// scheduler holds (RestoreState rejects anything else).
	at := func(n int) float64 {
		if n < len(data) {
			return float64(data[n])
		}
		return 0
	}
	st := model.NewState(c)
	n := 0
	for i := range st.Avail {
		for k := range st.Avail[i] {
			st.Avail[i][k] = at(n) / 4
			n++
		}
		st.Price[i] = 0.5
	}
	q := queue.Lengths{Central: make([]float64, c.J()), Local: make([][]float64, c.N())}
	for i := range q.Local {
		q.Local[i] = make([]float64, c.J())
		for j := range q.Local[i] {
			q.Local[i][j] = 40
		}
	}
	cfg := Config{V: 7.5, Beta: 100}
	_, _, hCap := SlotCoefficients(c, cfg, st, q)
	x := make([]float64, l.total)
	for v := range x {
		x[v] = at(n)/2 - 16 // some entries negative
		n++
	}
	for i := 0; i < c.N(); i++ {
		for j := range c.JobTypes {
			if !c.JobTypes[j].EligibleSet(i) {
				x[l.hIndex(i, j)] = 0
			}
		}
	}
	sp := newSparseSlot(c)
	sp.refresh(cfg, st, q, x)

	before := append([]float64(nil), x...)
	switch sp.repairWarm(st, x) {
	case warmFallback:
		return
	case warmHit:
		for v := range x {
			if x[v] != before[v] {
				t.Fatalf("warmHit mutated index %d: %v -> %v", v, before[v], x[v])
			}
		}
	}
	// Feasible now, and stable under a second pass.
	const tol = 1e-9
	for i := 0; i < c.N(); i++ {
		var work, capWork float64
		for j := 0; j < c.J(); j++ {
			h := x[l.hIndex(i, j)]
			if h < 0 || h > hCap[i][j] {
				t.Fatalf("site %d job %d: h=%v outside [0, %v]", i, j, h, hCap[i][j])
			}
			work += c.JobTypes[j].Demand * h
		}
		for k, stype := range c.DataCenters[i].Servers {
			b := x[l.bOff[i]+k]
			if b < 0 || b > st.Avail[i][k] {
				t.Fatalf("site %d server %d: b=%v outside [0, %v]", i, k, b, st.Avail[i][k])
			}
			capWork += stype.Speed * b
		}
		if work > capWork*(1+1e-9)+tol {
			t.Fatalf("site %d: work %v exceeds capacity %v", i, work, capWork)
		}
		for r := 0; r < c.Aux(); r++ {
			var usage float64
			for j := 0; j < c.J(); j++ {
				usage += c.JobTypes[j].AuxDemand[r] * x[l.hIndex(i, j)]
			}
			if capR := c.DataCenters[i].AuxCapacity[r]; usage > capR*(1+1e-9)+tol {
				t.Fatalf("site %d aux %d: usage %v exceeds capacity %v", i, r, usage, capR)
			}
		}
	}
	sp.refresh(cfg, st, q, x)
	if got := sp.repairWarm(st, x); got != warmHit {
		t.Fatalf("repair not idempotent: second pass returned %v", got)
	}
}
