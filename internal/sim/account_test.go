package sim

import (
	"testing"

	"grefar/internal/core"
	"grefar/internal/fairness"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/tariff"
	"grefar/internal/telemetry"
)

// accountSlot builds one applied slot on the reference cluster in which
// every site asks to process one job more of each eligible type than its
// local queue holds, with every available server busy.
func accountSlot(t *testing.T) (*model.Cluster, Slot) {
	t.Helper()
	in, err := NewReferenceInputs(2012, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := in.Cluster
	states, arrivals, err := CollectStates(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := states[0]
	qs := queue.NewSet(c)
	lens := make([]float64, c.J())
	for j := range lens {
		lens[j] = 2
	}
	act := model.NewAction(c)
	for i := range act.Busy {
		qs.SeedRow(i, 0, lens)
		copy(act.Busy[i], st.Avail[i])
		for j := range c.JobTypes {
			if c.JobTypes[j].EligibleSet(i) {
				act.Process[i][j] = lens[j] + 1
			}
		}
	}
	pre := qs.Lengths()
	flows, err := qs.Apply(1, act)
	if err != nil {
		t.Fatal(err)
	}
	if err := qs.Arrive(1, arrivals[0]); err != nil {
		t.Fatal(err)
	}
	return c, Slot{T: 1, State: st, Action: act, Flows: flows, Pre: pre, Post: qs.View(),
		Arrivals: arrivals[0], Admitted: arrivals[0]}
}

// TestAccountScoresTheAllocation pins what a slot account bills and scores
// on a slot whose action asks for more than the queues hold: energy is the
// action's central bill under the tariff, total and per site; fairness is
// eq. (3)'s score of the allocation sum h*d, which here differs from the
// score of what was processed; the processed count is the flows'.
func TestAccountScoresTheAllocation(t *testing.T) {
	c, s := accountSlot(t)
	trf, err := tariff.NewQuadratic(0.5)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAccount(c, nil, trf, false)
	if err != nil {
		t.Fatal(err)
	}
	a.Add(s)
	ev := a.Event(telemetry.OriginSim, "test", false)

	fair, err := fairness.NewQuadratic(core.AccountWeights(c))
	if err != nil {
		t.Fatal(err)
	}
	R := s.State.TotalResource(c)
	if want := fair.Score(s.Action.AccountWork(c), R); ev.Fairness != want {
		t.Errorf("fairness %v, want the allocation's score %v", ev.Fairness, want)
	}
	done := make([]float64, c.M())
	var processed float64
	for _, f := range s.Flows.Cells {
		jt := &c.JobTypes[f.Type]
		done[jt.Account] += f.Processed * jt.Demand
		processed += f.Processed
	}
	if ev.Fairness == fair.Score(done, R) {
		t.Fatal("the processed counts score as the allocation does; the row proves nothing")
	}
	if ev.Processed != processed {
		t.Errorf("processed %v, flows processed %v", ev.Processed, processed)
	}
	if want := s.Action.BilledCost(c, s.State, trf); ev.Energy != want {
		t.Errorf("energy %v, want the central bill %v", ev.Energy, want)
	}
	for i, e := range ev.EnergyPerDC {
		if want := s.Action.BilledCostAt(c, s.State, i, trf); e != want {
			t.Errorf("site %d: energy %v, want %v", i, e, want)
		}
	}
}

// TestAccountAddAllocatesNothing: the control loop keeps an account on every
// slot, observed or not, so accounting a slot without series must not
// allocate.
func TestAccountAddAllocatesNothing(t *testing.T) {
	c, s := accountSlot(t)
	a, err := NewAccount(c, nil, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { a.Add(s) }); got != 0 {
		t.Errorf("Add allocates %v per slot, want 0", got)
	}
}
