package queue

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// The snapshot format captures every FIFO cohort of every ledger, so a
// restored queue set resumes with exact backlogs *and* exact per-job waiting
// times — a restarted agent or controller keeps measuring delays correctly
// instead of resetting them to zero.

// cohortData is the exported wire form of one FIFO cohort.
type cohortData struct {
	Slot   int
	Amount float64
}

// ledgerData is the exported wire form of one ledger.
type ledgerData struct {
	Cohorts []cohortData
	// Total is the ledger's live incrementally-maintained length. It can
	// differ from the sum of the cohort amounts in the last ulp (the live
	// value accumulates interleaved pushes and pops — including the clamp
	// at zero, so Total can be exactly 0 while a cohort retains an ulp-sized
	// residue), and restoring the exact value is what makes a restored
	// scheduler's decision stream byte-identical to the uninterrupted one.
	Total float64
	// HasTotal distinguishes a recorded Total — even an exact zero — from a
	// snapshot written before the field existed; restore falls back to
	// re-summing the cohorts only when it is unset.
	HasTotal bool
}

// setData is the exported wire form of a whole queue set.
type setData struct {
	Central []ledgerData
	Local   [][]ledgerData
}

// snapshot extracts the live cohorts of a ledger.
func (l *Ledger) snapshot() ledgerData {
	out := ledgerData{Cohorts: make([]cohortData, 0, len(l.entries)-l.head), Total: l.total, HasTotal: true}
	for _, e := range l.entries[l.head:] {
		if e.amount > 0 {
			out.Cohorts = append(out.Cohorts, cohortData{Slot: e.slot, Amount: e.amount})
		}
	}
	return out
}

// check rejects what no ledger can hold: a cohort amount or a total that is
// not finite and non-negative. Restores check every ledger before they
// replace any, so a rejected snapshot leaves the queues as they were.
func (data ledgerData) check() error {
	for _, c := range data.Cohorts {
		if !finiteNonNeg(c.Amount) {
			return fmt.Errorf("cohort of slot %d holds %v jobs", c.Slot, c.Amount)
		}
	}
	if !finiteNonNeg(data.Total) {
		return fmt.Errorf("total is %v", data.Total)
	}
	return nil
}

func finiteNonNeg(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// restore replaces the ledger contents from a checked snapshot.
func (l *Ledger) restore(data ledgerData) {
	l.entries = l.entries[:0]
	l.head = 0
	l.total = 0
	for _, c := range data.Cohorts {
		l.Push(c.Slot, c.Amount)
	}
	// Prefer the recorded live total over the re-summed one: the two can
	// differ in the last ulp and exact restoration is the contract. Legacy
	// snapshots carry no total (gob leaves HasTotal false); keep the
	// re-summed value then.
	if data.HasTotal {
		l.total = data.Total
	}
}

// SnapshotLedgers serializes a flat ledger slice (an agent's local queues).
func SnapshotLedgers(ls []Ledger) ([]byte, error) {
	data := make([]ledgerData, len(ls))
	for j := range ls {
		data[j] = ls[j].snapshot()
	}
	return encodeLedgers(data)
}

func encodeLedgers(data []ledgerData) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(data); err != nil {
		return nil, fmt.Errorf("encode ledger snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreLedgers replaces the contents of a flat ledger slice from a
// SnapshotLedgers payload of the same length.
func RestoreLedgers(ls []Ledger, snapshot []byte) error {
	var data []ledgerData
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&data); err != nil {
		return fmt.Errorf("decode ledger snapshot: %w", err)
	}
	if len(data) != len(ls) {
		return fmt.Errorf("snapshot has %d ledgers, want %d", len(data), len(ls))
	}
	for j := range data {
		if err := data[j].check(); err != nil {
			return fmt.Errorf("snapshot ledger %d: %w", j, err)
		}
	}
	for j := range ls {
		ls[j].restore(data[j])
	}
	return nil
}

// row returns data center i's local ledgers in wire form, one per job type:
// an ineligible pair is written as the empty ledger it always is.
func (s *Set) row(i int) []ledgerData {
	out := make([]ledgerData, len(s.central))
	for j := range out {
		out[j] = ledgerData{HasTotal: true}
	}
	for k, j := range s.pairs.At(i) {
		out[j] = s.local[s.pairs.Off[i]+k].snapshot()
	}
	return out
}

// Snapshot serializes the full queue state (central and local ledgers with
// their arrival slots) with gob. The format is dense: every (data center,
// job type) pair has a ledger, empty where the type is not eligible.
func (s *Set) Snapshot() ([]byte, error) {
	data := setData{
		Central: make([]ledgerData, len(s.central)),
		Local:   make([][]ledgerData, len(s.view.Local)),
	}
	for j := range s.central {
		data.Central[j] = s.central[j].snapshot()
	}
	for i := range data.Local {
		data.Local[i] = s.row(i)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(data); err != nil {
		return nil, fmt.Errorf("encode queue snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// SnapshotRow serializes data center i's local ledgers in SnapshotLedgers'
// format: what an agent holding site i's queues restores from.
func (s *Set) SnapshotRow(i int) ([]byte, error) { return encodeLedgers(s.row(i)) }

// Restore replaces the queue state from a Snapshot taken on a set with the
// same shape (same cluster). Every ledger is checked before any is replaced,
// and a ledger at a pair whose type is not eligible there must be empty, so
// a rejected snapshot leaves the set as it was.
func (s *Set) Restore(snapshot []byte) error {
	var data setData
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&data); err != nil {
		return fmt.Errorf("decode queue snapshot: %w", err)
	}
	if len(data.Central) != len(s.central) || len(data.Local) != len(s.view.Local) {
		return fmt.Errorf("snapshot shaped %dx%d, set is %dx%d",
			len(data.Central), len(data.Local), len(s.central), len(s.view.Local))
	}
	for j := range data.Central {
		if err := data.Central[j].check(); err != nil {
			return fmt.Errorf("snapshot central queue %d: %w", j, err)
		}
	}
	nJ := len(s.central)
	for i, row := range data.Local {
		if len(row) != nJ {
			return fmt.Errorf("snapshot site %d has %d job types, set has %d", i, len(row), nJ)
		}
		types := s.pairs.At(i)
		for j := range row {
			if err := row[j].check(); err != nil {
				return fmt.Errorf("snapshot site %d queue %d: %w", i, j, err)
			}
			if len(types) > 0 && types[0] == j {
				types = types[1:]
			} else if len(row[j].Cohorts) > 0 || row[j].Total != 0 {
				return fmt.Errorf("snapshot site %d queue %d holds jobs of a type not eligible there", i, j)
			}
		}
	}
	for j := range s.central {
		s.central[j].restore(data.Central[j])
		s.lens[j] = s.central[j].Len()
	}
	for i, row := range data.Local {
		for k, j := range s.pairs.At(i) {
			l := &s.local[s.pairs.Off[i]+k]
			l.restore(row[j])
			s.lens[(i+1)*nJ+j] = l.Len()
		}
	}
	return nil
}
