package queue

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"grefar/internal/model"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c := model.NewReferenceCluster()
	s := NewSet(c)

	arr := make([]int, c.J())
	arr[0], arr[3] = 5, 2
	if err := s.Arrive(0, arr); err != nil {
		t.Fatal(err)
	}
	act := model.NewAction(c)
	act.Route[1][0] = 3
	if _, err := s.Apply(1, act); err != nil {
		t.Fatal(err)
	}
	arr2 := make([]int, c.J())
	arr2[0] = 4
	if err := s.Arrive(1, arr2); err != nil {
		t.Fatal(err)
	}

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSet(c)
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}

	// Backlogs identical.
	a, b := s.Lengths(), restored.Lengths()
	for j := range a.Central {
		if a.Central[j] != b.Central[j] {
			t.Errorf("central[%d]: %v != %v", j, a.Central[j], b.Central[j])
		}
	}
	for i := range a.Local {
		for j := range a.Local[i] {
			if a.Local[i][j] != b.Local[i][j] {
				t.Errorf("local[%d][%d]: %v != %v", i, j, a.Local[i][j], b.Local[i][j])
			}
		}
	}

	// Delay accounting identical: process from both and compare waiting
	// times, which requires the arrival slots to have survived.
	act = model.NewAction(c)
	act.Process[1][0] = 3
	fs1, err := s.Apply(5, act)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := restored.Apply(5, act)
	if err != nil {
		t.Fatal(err)
	}
	if fs1.LocalDelaySum[1][0] != fs2.LocalDelaySum[1][0] {
		t.Errorf("delay sums differ after restore: %v vs %v", fs1.LocalDelaySum[1][0], fs2.LocalDelaySum[1][0])
	}
}

// TestRestorePreservesLiveTotal pins the ulp contract: the ledger's
// incrementally-maintained total — not the re-summed cohorts — is what a
// restore reproduces, including the clamp-at-zero case where the live total
// is exactly 0 while a cohort retains an ulp-sized residue.
func TestRestorePreservesLiveTotal(t *testing.T) {
	var l Ledger
	l.Push(0, 0.1)
	l.Push(0, 0.2)
	// Interleaved pops drift the incrementally-maintained total away from
	// the re-summed cohort amounts in the last ulp.
	l.PopVisit(2, 0.1+0.2-5e-17, nil)
	live := l.Len()
	restored := &Ledger{}
	restored.restore(l.snapshot())
	if got := restored.Len(); got != live {
		t.Errorf("restored total %v, live total %v", got, live)
	}

	// Clamp-at-zero: pop (slightly) more than the total, leaving total == 0
	// with a possible residual cohort. The restored total must be exactly 0
	// too, not the residue re-sum.
	var z Ledger
	z.Push(0, 0.1)
	z.Push(1, 0.2)
	z.PopVisit(2, 0.30000000000000004, nil)
	if z.Len() != 0 {
		t.Skipf("pop did not clamp total to zero (got %v); clamp case not reachable here", z.Len())
	}
	zr := &Ledger{}
	zr.restore(z.snapshot())
	if got := zr.Len(); got != 0 {
		t.Errorf("restored clamped total %v, want exactly 0", got)
	}

	// Legacy snapshots (no recorded total) fall back to the re-sum.
	data := l.snapshot()
	data.HasTotal = false
	data.Total = 0
	legacy := &Ledger{}
	legacy.restore(data)
	var sum float64
	for _, c := range data.Cohorts {
		sum += c.Amount
	}
	if got := legacy.Len(); got != sum {
		t.Errorf("legacy restore total %v, want re-summed %v", got, sum)
	}
}

func TestRestoreRejectsWrongShape(t *testing.T) {
	c := model.NewReferenceCluster()
	s := NewSet(c)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	small := &model.Cluster{
		DataCenters: c.DataCenters[:1],
		JobTypes:    c.JobTypes,
		Accounts:    c.Accounts,
	}
	other := NewSet(small)
	if err := other.Restore(snap); err == nil {
		t.Error("wrong-shape snapshot accepted")
	}
	if err := s.Restore([]byte("garbage")); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

func TestRestoreOverwritesExistingState(t *testing.T) {
	c := model.NewReferenceCluster()
	s := NewSet(c)
	arr := make([]int, c.J())
	arr[0] = 7
	if err := s.Arrive(0, arr); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Mutate further, then restore: state must rewind.
	arr[0] = 5
	if err := s.Arrive(1, arr); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := s.CentralLen(0); got != 7 {
		t.Errorf("CentralLen = %v, want 7 after rewind", got)
	}
}

// TestRestoreRejectsImpossibleLedgers feeds RestoreLedgers and Set.Restore gob
// payloads carrying one value no ledger can hold, on the last ledger, behind
// valid ledgers that differ from the live state: each payload must be refused
// before any ledger changes.
func TestRestoreRejectsImpossibleLedgers(t *testing.T) {
	c := model.NewReferenceCluster()
	good := ledgerData{Cohorts: []cohortData{{Slot: 3, Amount: 4}}, Total: 4, HasTotal: true}
	withCohort := func(v float64) ledgerData {
		return ledgerData{Cohorts: []cohortData{{Slot: 1, Amount: v}}, Total: 1, HasTotal: true}
	}
	withTotal := func(v float64) ledgerData {
		return ledgerData{Cohorts: []cohortData{{Slot: 1, Amount: 1}}, Total: v, HasTotal: true}
	}
	encode := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name string
		bad  ledgerData
	}{
		{"cohort-NaN", withCohort(math.NaN())},
		{"cohort-negative", withCohort(-1)},
		{"cohort-Inf", withCohort(math.Inf(1))},
		{"total-NaN", withTotal(math.NaN())},
		{"total-negative", withTotal(-1)},
		{"total-Inf", withTotal(math.Inf(1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ls := make([]Ledger, c.J())
			data := make([]ledgerData, c.J())
			for j := range ls {
				ls[j].Push(0, float64(j+1))
				data[j] = good
			}
			data[c.J()-1] = tc.bad
			lens := func() []float64 {
				out := make([]float64, len(ls))
				for j := range ls {
					out[j] = ls[j].Len()
				}
				return out
			}
			before := lens()
			if err := RestoreLedgers(ls, encode(data)); err == nil {
				t.Error("RestoreLedgers accepted the payload")
			}
			if got := lens(); !reflect.DeepEqual(got, before) {
				t.Errorf("RestoreLedgers moved the ledgers: %v -> %v", before, got)
			}

			s := NewSet(c)
			arr := make([]int, c.J())
			arr[0] = 7
			if err := s.Arrive(0, arr); err != nil {
				t.Fatal(err)
			}
			sd := setData{Central: make([]ledgerData, c.J()), Local: make([][]ledgerData, c.N())}
			for j := range sd.Central {
				sd.Central[j] = good
			}
			for i := range sd.Local {
				sd.Local[i] = make([]ledgerData, c.J())
				for j := range sd.Local[i] {
					sd.Local[i][j] = good
				}
			}
			sd.Local[c.N()-1][c.J()-1] = tc.bad
			want := s.Lengths()
			if err := s.Restore(encode(sd)); err == nil {
				t.Error("Set.Restore accepted the payload")
			}
			if got := s.Lengths(); !reflect.DeepEqual(got, want) {
				t.Errorf("Set.Restore moved the queues: %+v -> %+v", want, got)
			}
		})
	}
}
