package queue

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"reflect"
	"testing"

	"grefar/internal/model"
)

// partialCluster has five one-server sites and five job types with holes in
// the eligibility: an unsorted list, a type that runs at one site only, and
// site 4, where no type runs.
func partialCluster(tb testing.TB) *model.Cluster {
	tb.Helper()
	c := &model.Cluster{Accounts: []model.Account{{Name: "a", Weight: 1}}}
	for i := 0; i < 5; i++ {
		c.DataCenters = append(c.DataCenters, model.DataCenter{
			Name:    fmt.Sprintf("dc%d", i),
			Servers: []model.ServerType{{Name: "s", Speed: 1, Power: 1}},
		})
	}
	c.JobTypes = []model.JobType{
		{Name: "t0", Demand: 1, Eligible: []int{0, 1, 2, 3}},
		{Name: "t1", Demand: 2, Eligible: []int{2, 0}},
		{Name: "t2", Demand: 1, Eligible: []int{3}},
		{Name: "t3", Demand: 3, Eligible: []int{3, 1}},
		{Name: "t4", Demand: 1, Eligible: []int{0}},
	}
	if err := c.Validate(); err != nil {
		tb.Fatal(err)
	}
	return c
}

// partialSet runs twelve slots of routing and fractional processing at every
// eligible pair of partialCluster, with arrivals every slot, so its ledgers
// end with several cohorts each.
func partialSet(tb testing.TB) *Set {
	tb.Helper()
	c := partialCluster(tb)
	s := NewSet(c)
	arr := make([]int, c.J())
	for slot := 0; slot < 12; slot++ {
		act := model.NewAction(c)
		for j, jt := range c.JobTypes {
			for _, i := range jt.Eligible {
				act.Route[i][j] = (i + j + slot) % 3
				act.Process[i][j] = float64((i*j+slot)%4) / 2
			}
		}
		if _, err := s.Apply(slot, act); err != nil {
			tb.Fatal(err)
		}
		for j := range arr {
			arr[j] = (3 + j + slot) % 5
		}
		if err := s.Arrive(slot, arr); err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestSnapshotFormatOnPartialEligibility pins the snapshot format of a set
// that keeps ledgers for its eligible pairs only. The committed file was
// written by a Set that kept a ledger for every (site, job type) pair: the
// set writes those bytes exactly, empty ledgers at the ineligible pairs, and
// restores them to the same queues.
func TestSnapshotFormatOnPartialEligibility(t *testing.T) {
	want, err := os.ReadFile("testdata/partial_eligibility.snap")
	if err != nil {
		t.Fatal(err)
	}
	s := partialSet(t)
	got, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Snapshot writes %d bytes that differ from the pinned %d", len(got), len(want))
	}
	restored := NewSet(partialCluster(t))
	if err := restored.Restore(want); err != nil {
		t.Fatal(err)
	}
	if again, _ := restored.Snapshot(); !bytes.Equal(again, want) {
		t.Fatal("the restored set snapshots to other bytes")
	}
	if !reflect.DeepEqual(restored.Lengths(), s.Lengths()) || !reflect.DeepEqual(restored.Lengths(), walkLengths(restored)) {
		t.Fatalf("restored lengths %v, want %v", restored.Lengths(), s.Lengths())
	}
	if len(s.local) != s.pairs.Len() || s.pairs.Len() != 10 {
		t.Fatalf("%d local ledgers for %d eligible pairs, want 10", len(s.local), s.pairs.Len())
	}
}

// TestIneligibleJobsAreRefused: Apply, Restore and SeedRow refuse whatever
// would put jobs at a pair whose job type is not eligible at the site, and
// each refusal leaves the set's snapshot bytes (and Apply's previous result)
// as they were.
func TestIneligibleJobsAreRefused(t *testing.T) {
	c := partialCluster(t)
	s, twin := partialSet(t), partialSet(t)
	before, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string) {
		t.Helper()
		after, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, before) {
			t.Fatalf("%s: the refusal changed the set", what)
		}
		if !reflect.DeepEqual(s.Lengths(), walkLengths(s)) {
			t.Fatalf("%s: Lengths() differs from the ledgers", what)
		}
		if !reflect.DeepEqual(s.flows, twin.flows) {
			t.Fatalf("%s: the refusal changed the previous FlowStats", what)
		}
	}

	// Apply: a legal action plus one move at an ineligible pair — type 2 at
	// site 0, type 4 at site 4 — placed after every legal move.
	legal := func() *model.Action {
		act := model.NewAction(c)
		for j, jt := range c.JobTypes {
			for _, i := range jt.Eligible {
				act.Route[i][j], act.Process[i][j] = 1, 0.5
			}
		}
		return act
	}
	for _, tc := range []struct {
		name  string
		spoil func(*model.Action)
	}{
		{"route", func(a *model.Action) { a.Route[0][2] = 1 }},
		{"process", func(a *model.Action) { a.Process[0][2] = 0.5 }},
		{"route at a site that runs nothing", func(a *model.Action) { a.Route[4][4] = 3 }},
		{"process at a site that runs nothing", func(a *model.Action) { a.Process[4][4] = 1 }},
	} {
		act := legal()
		tc.spoil(act)
		if _, err := s.Apply(12, act); err == nil {
			t.Fatalf("Apply with a %s at an ineligible pair accepted", tc.name)
		}
		unchanged("Apply " + tc.name)
	}

	// Restore: the set's own snapshot with one ineligible ledger holding a
	// cohort, or only a total.
	for _, tc := range []struct {
		name  string
		spoil func(*setData)
	}{
		{"cohort", func(d *setData) {
			d.Local[1][1] = ledgerData{Cohorts: []cohortData{{Slot: 3, Amount: 2}}, Total: 2, HasTotal: true}
		}},
		{"total", func(d *setData) { d.Local[4][0] = ledgerData{Total: 1, HasTotal: true} }},
		{"legacy cohort", func(d *setData) { d.Local[0][3] = ledgerData{Cohorts: []cohortData{{Slot: 0, Amount: 1}}} }},
	} {
		var data setData
		if err := gob.NewDecoder(bytes.NewReader(before)).Decode(&data); err != nil {
			t.Fatal(err)
		}
		tc.spoil(&data)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(data); err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(buf.Bytes()); err == nil {
			t.Fatalf("Restore of a snapshot with a %s at an ineligible pair accepted", tc.name)
		}
		unchanged("Restore " + tc.name)
	}

	// SeedRow: backlog at a type the site does not run, at a site that runs
	// some types and at one that runs none, and a short row.
	for _, tc := range []struct {
		site int
		lens []float64
	}{
		{1, []float64{2, 0, 1, 3, 0}},
		{4, []float64{0, 0, 0, 0, 0.5}},
		{2, []float64{1, 1}},
	} {
		if err := s.SeedRow(tc.site, 12, tc.lens); err == nil {
			t.Fatalf("SeedRow(%d, %v) accepted", tc.site, tc.lens)
		}
		unchanged(fmt.Sprintf("SeedRow(%d, %v)", tc.site, tc.lens))
	}

	// The legal forms of each still go through.
	if err := s.SeedRow(1, 12, []float64{2, 0, 0, 3, 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(before); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(12, legal()); err != nil {
		t.Fatal(err)
	}
}
