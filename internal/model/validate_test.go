package model

import (
	"errors"
	"fmt"
	"testing"
)

// fleetCluster builds n one-server sites and three job types: types 0 and 1
// eligible at every site, type 2 only at the short, unsorted list {3, 1}.
func fleetCluster(tb testing.TB, n int) (*Cluster, *State) {
	tb.Helper()
	c := &Cluster{Accounts: []Account{{Name: "a", Weight: 1}}}
	all := make([]int, n)
	for i := 0; i < n; i++ {
		all[i] = i
		c.DataCenters = append(c.DataCenters, DataCenter{
			Name:    fmt.Sprintf("dc%d", i),
			Servers: []ServerType{{Speed: 1, Power: 1}},
		})
	}
	c.JobTypes = []JobType{
		{Name: "everywhere-0", Demand: 1, Eligible: all, MaxRoute: 10},
		{Name: "everywhere-1", Demand: 2, Eligible: all},
		{Name: "placed", Demand: 1, Eligible: []int{3, 1}},
	}
	if err := c.Validate(); err != nil {
		tb.Fatal(err)
	}
	s := NewState(c)
	for i := 0; i < n; i++ {
		s.Avail[i][0] = 100
		s.Price[i] = 0.5
	}
	return c, s
}

// busyAction is a feasible action with a non-zero Route and Process entry at
// every eligible pair, so validation meets a non-zero entry everywhere it may.
func busyAction(c *Cluster) *Action {
	a := NewAction(c)
	for j, jt := range c.JobTypes {
		for _, i := range jt.Eligible {
			a.Route[i][j] = 1 + j
			a.Process[i][j] = 0.5
		}
	}
	for i := range a.Busy {
		a.Busy[i][0] = 10
	}
	return a
}

// TestActionValidateEligibilityAtFleetSize pins Action.Validate's eligibility
// rule at N = 500, where it no longer scans D_j per pair: the same entries are
// rejected, first offender in (site, job type) order, with the same message.
func TestActionValidateEligibilityAtFleetSize(t *testing.T) {
	c, s := fleetCluster(t, 500)
	if err := busyAction(c).Validate(c, s); err != nil {
		t.Fatalf("feasible action rejected: %v", err)
	}
	cases := []struct {
		name string
		act  func() *Action
		want string
	}{
		{"route only", func() *Action {
			a := busyAction(c)
			a.Route[0][2] = 1
			return a
		}, "job type 2 is not eligible at data center 0"},
		{"process only", func() *Action {
			a := busyAction(c)
			a.Process[2][2] = 0.25
			return a
		}, "job type 2 is not eligible at data center 2"},
		{"only non-zero entry", func() *Action {
			a := NewAction(c)
			a.Route[250][2] = 1
			return a
		}, "job type 2 is not eligible at data center 250"},
		{"site past the end of a short eligible list", func() *Action {
			a := busyAction(c)
			a.Process[499][2] = 1
			return a
		}, "job type 2 is not eligible at data center 499"},
		{"first offender in site order", func() *Action {
			a := busyAction(c)
			a.Route[400][2] = 1
			a.Process[7][2] = 1
			return a
		}, "job type 2 is not eligible at data center 7"},
		{"an earlier site's other violation still comes first", func() *Action {
			a := busyAction(c)
			a.Route[400][2] = 1
			a.Route[5][0] = 11
			return a
		}, "route[5][0] = 11 exceeds bound 10"},
		{"an earlier offender comes before a later site's other violation", func() *Action {
			a := busyAction(c)
			a.Route[2][2] = 1
			a.Route[5][0] = 11
			return a
		}, "job type 2 is not eligible at data center 2"},
		{"an offender comes before its own site's capacity", func() *Action {
			a := busyAction(c)
			a.Process[6][2] = 1
			a.Busy[6][0] = 0
			return a
		}, "job type 2 is not eligible at data center 6"},
		{"a violation before the offender in its row comes first", func() *Action {
			a := busyAction(c)
			a.Route[6][0] = 11
			a.Route[6][2] = 11
			return a
		}, "route[6][0] = 11 exceeds bound 10"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.act().Validate(c, s)
			if !errors.Is(err, ErrInfeasibleAction) {
				t.Fatalf("err = %v, want ErrInfeasibleAction", err)
			}
			if want := ErrInfeasibleAction.Error() + ": " + tc.want; err.Error() != want {
				t.Errorf("err = %q, want %q", err, want)
			}
		})
	}
}

// TestActionValidateAllocatesNothing: validating a feasible action at the
// fleet's shape allocates nothing, with some types eligible everywhere and
// one at two sites only.
func TestActionValidateAllocatesNothing(t *testing.T) {
	c, s := fleetCluster(t, 500)
	a := busyAction(c)
	if n := testing.AllocsPerRun(20, func() {
		if err := a.Validate(c, s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Validate allocates %v times", n)
	}
}

// BenchmarkActionValidate measures one Action.Validate of a fully non-zero
// action at the hollow fleet's shape, where every site is eligible for every
// job type — the shape that made a per-pair scan of D_j quadratic in N.
func BenchmarkActionValidate(b *testing.B) {
	b.Run("N=500/J=3", func(b *testing.B) {
		c, s := fleetCluster(b, 500)
		c.JobTypes[2].Eligible = c.JobTypes[0].Eligible
		a := busyAction(c)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := a.Validate(c, s); err != nil {
				b.Fatal(err)
			}
		}
	})
}
