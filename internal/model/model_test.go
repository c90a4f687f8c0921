package model

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func refCluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewReferenceCluster()
	if err := c.Validate(); err != nil {
		t.Fatalf("reference cluster invalid: %v", err)
	}
	return c
}

func refState(t *testing.T, c *Cluster) *State {
	t.Helper()
	s := NewState(c)
	for i := 0; i < c.N(); i++ {
		for k := 0; k < c.K(i); k++ {
			s.Avail[i][k] = 100
		}
		s.Price[i] = 0.4 + 0.1*float64(i)
	}
	if err := s.Validate(c); err != nil {
		t.Fatalf("state invalid: %v", err)
	}
	return s
}

func TestReferenceClusterShape(t *testing.T) {
	c := refCluster(t)
	if got, want := c.N(), 3; got != want {
		t.Errorf("N() = %d, want %d", got, want)
	}
	if got, want := c.J(), 8; got != want {
		t.Errorf("J() = %d, want %d", got, want)
	}
	if got, want := c.M(), 4; got != want {
		t.Errorf("M() = %d, want %d", got, want)
	}
	var weights float64
	for _, a := range c.Accounts {
		weights += a.Weight
	}
	if math.Abs(weights-1.0) > 1e-12 {
		t.Errorf("account weights sum to %v, want 1.0", weights)
	}
}

func TestCostPerWorkOrdering(t *testing.T) {
	// Table I: energy per unit work is p/s = 1.00, 0.80, ~1.043 for the
	// three sites; combined with average prices the cheapest site is dc2.
	c := refCluster(t)
	r1 := c.DataCenters[0].Servers[0].CostPerWork()
	r2 := c.DataCenters[1].Servers[0].CostPerWork()
	r3 := c.DataCenters[2].Servers[0].CostPerWork()
	if !(r2 < r1 && r1 < r3) {
		t.Errorf("cost-per-work ordering = %v, %v, %v; want dc2 < dc1 < dc3", r1, r2, r3)
	}
	if math.Abs(r1-1.0) > 1e-12 || math.Abs(r2-0.8) > 1e-12 {
		t.Errorf("unexpected rates: %v, %v", r1, r2)
	}
}

func TestValidateCatchesBadCluster(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Cluster)
		substr string
	}{
		{"no dcs", func(c *Cluster) { c.DataCenters = nil }, "no data centers"},
		{"no jobs", func(c *Cluster) { c.JobTypes = nil }, "no job types"},
		{"no accounts", func(c *Cluster) { c.Accounts = nil }, "no accounts"},
		{"zero speed", func(c *Cluster) { c.DataCenters[0].Servers[0].Speed = 0 }, "speed"},
		{"negative power", func(c *Cluster) { c.DataCenters[1].Servers[0].Power = -1 }, "power"},
		{"zero demand", func(c *Cluster) { c.JobTypes[0].Demand = 0 }, "demand"},
		{"empty eligible", func(c *Cluster) { c.JobTypes[2].Eligible = nil }, "eligible"},
		{"bad eligible", func(c *Cluster) { c.JobTypes[2].Eligible = []int{7} }, "out of range"},
		{"dup eligible", func(c *Cluster) { c.JobTypes[2].Eligible = []int{1, 1} }, "duplicate"},
		{"bad account", func(c *Cluster) { c.JobTypes[3].Account = 9 }, "account"},
		{"negative weight", func(c *Cluster) { c.Accounts[0].Weight = -0.1 }, "weight"},
		{"negative max arrival", func(c *Cluster) { c.JobTypes[0].MaxArrival = -1 }, "MaxArrival"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewReferenceCluster()
			tc.mutate(c)
			err := c.Validate()
			if err == nil {
				t.Fatal("Validate() = nil, want error")
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("Validate() = %q, want substring %q", err, tc.substr)
			}
		})
	}
}

func TestStateCapacityAndResource(t *testing.T) {
	c := refCluster(t)
	s := refState(t, c)
	// 100 servers each: capacities 100*1.00, 100*0.75, 100*1.15.
	wants := []float64{100, 75, 115}
	var total float64
	for i, want := range wants {
		if got := s.Capacity(c, i); math.Abs(got-want) > 1e-12 {
			t.Errorf("Capacity(%d) = %v, want %v", i, got, want)
		}
		total += want
	}
	if got := s.TotalResource(c); math.Abs(got-total) > 1e-12 {
		t.Errorf("TotalResource() = %v, want %v", got, total)
	}
}

func TestStateValidate(t *testing.T) {
	c := refCluster(t)
	s := refState(t, c)
	s.Avail[1][0] = -1
	if err := s.Validate(c); err == nil {
		t.Error("negative availability not rejected")
	}
	s = refState(t, c)
	s.Price[2] = -0.1
	if err := s.Validate(c); err == nil {
		t.Error("negative price not rejected")
	}
	s = refState(t, c)
	s.Price = s.Price[:2]
	if err := s.Validate(c); err == nil {
		t.Error("wrong shape not rejected")
	}
}

func TestStateClone(t *testing.T) {
	c := refCluster(t)
	s := refState(t, c)
	cp := s.Clone()
	cp.Avail[0][0] = -99
	cp.Price[0] = -99
	if s.Avail[0][0] == -99 || s.Price[0] == -99 {
		t.Error("Clone shares storage with original")
	}
}

func TestActionEnergyAndWork(t *testing.T) {
	c := refCluster(t)
	s := refState(t, c)
	a := NewAction(c)
	a.Process[1][0] = 10 // 10 jobs of demand 1 at dc2
	a.Process[1][1] = 5  // 5 jobs of demand 4 at dc2
	// Need 30 units of work at dc2, speed 0.75 -> 40 busy servers.
	a.Busy[1][0] = 40
	if got, want := a.WorkAt(c, 1), 30.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("WorkAt = %v, want %v", got, want)
	}
	if got, want := a.ProvidedAt(c, 1), 30.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("ProvidedAt = %v, want %v", got, want)
	}
	// Energy at dc2: price 0.5 * 40 busy * power 0.60 = 12.
	if got, want := a.EnergyAt(c, s, 1), 12.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("EnergyAt = %v, want %v", got, want)
	}
	if got, want := a.Energy(c, s), 12.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Energy = %v, want %v", got, want)
	}
	if err := a.Validate(c, s); err != nil {
		t.Errorf("Validate() = %v, want nil", err)
	}
}

func TestActionAccountWork(t *testing.T) {
	c := refCluster(t)
	a := NewAction(c)
	a.Process[0][0] = 3 // org1, demand 1
	a.Process[2][1] = 2 // org1, demand 4
	a.Process[1][4] = 5 // org3, demand 1
	got := a.AccountWork(c)
	want := []float64{11, 0, 5, 0}
	for m := range want {
		if math.Abs(got[m]-want[m]) > 1e-12 {
			t.Errorf("AccountWork[%d] = %v, want %v", m, got[m], want[m])
		}
	}
}

func TestActionValidateCatchesInfeasible(t *testing.T) {
	c := refCluster(t)
	s := refState(t, c)

	t.Run("busy exceeds availability", func(t *testing.T) {
		a := NewAction(c)
		a.Busy[0][0] = 101
		if err := a.Validate(c, s); err == nil {
			t.Error("want error")
		}
	})
	t.Run("work exceeds provided", func(t *testing.T) {
		a := NewAction(c)
		a.Process[0][0] = 10
		a.Busy[0][0] = 5
		if err := a.Validate(c, s); err == nil {
			t.Error("want error")
		}
	})
	t.Run("negative route", func(t *testing.T) {
		a := NewAction(c)
		a.Route[0][0] = -1
		if err := a.Validate(c, s); err == nil {
			t.Error("want error")
		}
	})
	t.Run("route bound", func(t *testing.T) {
		a := NewAction(c)
		a.Route[0][0] = c.JobTypes[0].MaxRoute + 1
		if err := a.Validate(c, s); err == nil {
			t.Error("want error")
		}
	})
	t.Run("ineligible data center", func(t *testing.T) {
		cc := NewReferenceCluster()
		cc.JobTypes[0].Eligible = []int{1}
		ss := refState(t, &Cluster{DataCenters: cc.DataCenters, JobTypes: cc.JobTypes, Accounts: cc.Accounts})
		a := NewAction(cc)
		a.Route[0][0] = 1
		if err := a.Validate(cc, ss); err == nil {
			t.Error("want error")
		}
	})
}

// TestActionValidateProcessBoundIsInclusive pins the edge of the h_max check:
// processing exactly MaxProcess plus the feasibility tolerance is accepted,
// the next float above it is not.
func TestActionValidateProcessBoundIsInclusive(t *testing.T) {
	c := refCluster(t) // type 0: Demand 1, MaxProcess 120; site 0: Speed 1
	s := refState(t, c)
	s.Avail[0][0] = 200
	edge := c.JobTypes[0].MaxProcess + feasibilityTol
	a := NewAction(c)
	a.Process[0][0] = edge
	a.Busy[0][0] = 150
	if err := a.Validate(c, s); err != nil {
		t.Errorf("process at MaxProcess+tol rejected: %v", err)
	}
	a.Process[0][0] = math.Nextafter(edge, math.Inf(1))
	if err := a.Validate(c, s); err == nil {
		t.Error("process above MaxProcess+tol accepted")
	}
}

func TestEligibleSet(t *testing.T) {
	jt := JobType{Eligible: []int{0, 2}}
	if !jt.EligibleSet(0) || !jt.EligibleSet(2) {
		t.Error("expected members missing")
	}
	if jt.EligibleSet(1) {
		t.Error("unexpected member 1")
	}
}

// wideCluster has n data centers of two server types each and four job
// types: the shape NewAction and Clone size their matrices by.
func wideCluster(n int) *Cluster {
	c := &Cluster{JobTypes: make([]JobType, 4), Accounts: []Account{{Weight: 1}}}
	for i := 0; i < n; i++ {
		c.DataCenters = append(c.DataCenters, DataCenter{Servers: []ServerType{{Speed: 1, Power: 1}, {Speed: 2, Power: 3}}})
	}
	return c
}

// TestActionCloneIsDeepAndFlat: a clone equals its source, shares no storage
// with it (writing every cell of either leaves the other as it was), keeps
// each row capped at its own length, and costs the same number of
// allocations at 8 sites as at 200 — one backing array per matrix.
func TestActionCloneIsDeepAndFlat(t *testing.T) {
	c := wideCluster(8)
	a := NewAction(c)
	for i := range a.Route {
		for j := range a.Route[i] {
			a.Route[i][j] = i + j
			a.Process[i][j] = float64(i*j) / 2
		}
		for k := range a.Busy[i] {
			a.Busy[i][k] = float64(i + k)
		}
	}
	cp := a.Clone()
	if !reflect.DeepEqual(cp, a) {
		t.Fatal("clone differs from its source")
	}
	want := a.Clone()
	for i := range cp.Route {
		for j := range cp.Route[i] {
			cp.Route[i][j] = -1
			cp.Process[i][j] = -1
		}
		for k := range cp.Busy[i] {
			cp.Busy[i][k] = -1
		}
		_ = append(cp.Process[i], -2) // a row may not grow into its neighbour
	}
	if !reflect.DeepEqual(a, want) {
		t.Fatal("writing the clone changed its source")
	}
	for i := range cp.Process {
		if cap(cp.Process[i]) != len(cp.Process[i]) || cap(cp.Busy[i]) != len(cp.Busy[i]) || cap(cp.Route[i]) != len(cp.Route[i]) {
			t.Fatalf("row %d is not capped at its length", i)
		}
	}
	ragged := &Action{Route: [][]int{{1}, nil}, Process: [][]float64{{2}, {}}, Busy: [][]float64{nil, {3, 4}}}
	if got := ragged.Clone(); !reflect.DeepEqual(got, ragged) {
		t.Fatalf("ragged clone %+v, want %+v", got, ragged)
	}

	small, large := NewAction(c), NewAction(wideCluster(200))
	nSmall := testing.AllocsPerRun(50, func() { _ = small.Clone() })
	nLarge := testing.AllocsPerRun(50, func() { _ = large.Clone() })
	if nSmall != nLarge {
		t.Errorf("Clone allocates %v times at 8 sites and %v at 200", nSmall, nLarge)
	}
}

// TestSitePairs: the eligible pairs listed site by site, job types ascending
// whatever order the Eligible lists are in; a site no type may use has an
// empty run, and a site out of range or listed twice (which Validate
// refuses) is left out or listed once.
func TestSitePairs(t *testing.T) {
	c := &Cluster{
		DataCenters: make([]DataCenter, 4),
		JobTypes: []JobType{
			{Eligible: []int{2, 0}},
			{Eligible: []int{0, 0, 7, -1}},
			{Eligible: []int{2, 1, 0}},
		},
	}
	p := c.SitePairs()
	want := [][]int{{0, 1, 2}, {2}, {0, 2}, {}}
	for i, w := range want {
		if got := p.At(i); !slices.Equal(got, w) {
			t.Errorf("At(%d) = %v, want %v", i, got, w)
		}
	}
	if p.Len() != 6 {
		t.Errorf("Len() = %d, want 6", p.Len())
	}
	if got := p.At(0); cap(got) != len(got) {
		t.Errorf("At(0) has capacity %d past its %d types", cap(got), len(got))
	}
}
