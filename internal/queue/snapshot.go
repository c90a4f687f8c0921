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

// Snapshot serializes the full queue state (central and local ledgers with
// their arrival slots) with gob.
func (s *Set) Snapshot() ([]byte, error) { return SnapshotSet(s.central, s.local) }

// SnapshotSet serializes central and local ledgers held outside a Set in the
// Set's snapshot format: local[i] are site i's ledgers. The distributed
// controller checkpoints its central ledgers and its per-agent shadows this
// way, so either kind of checkpoint restores into the other.
func SnapshotSet(central []Ledger, local [][]Ledger) ([]byte, error) {
	data := setData{
		Central: make([]ledgerData, len(central)),
		Local:   make([][]ledgerData, len(local)),
	}
	for j := range central {
		data.Central[j] = central[j].snapshot()
	}
	for i := range local {
		data.Local[i] = make([]ledgerData, len(local[i]))
		for j := range local[i] {
			data.Local[i][j] = local[i][j].snapshot()
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(data); err != nil {
		return nil, fmt.Errorf("encode queue snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore replaces the queue state from a Snapshot taken on a set with the
// same shape (same cluster).
func (s *Set) Restore(snapshot []byte) error {
	if err := RestoreSet(s.central, s.local, snapshot); err != nil {
		return err
	}
	nJ := len(s.central)
	for j := range s.central {
		s.lens[j] = s.central[j].Len()
	}
	for i := range s.local {
		for j := range s.local[i] {
			s.lens[(i+1)*nJ+j] = s.local[i][j].Len()
		}
	}
	return nil
}

// RestoreSet replaces central and local ledgers from a snapshot of the same
// shape (a Set's, or SnapshotSet's). Every ledger is checked before any is
// replaced, so a rejected snapshot leaves them all as they were.
func RestoreSet(central []Ledger, local [][]Ledger, snapshot []byte) error {
	var data setData
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&data); err != nil {
		return fmt.Errorf("decode queue snapshot: %w", err)
	}
	if len(data.Central) != len(central) || len(data.Local) != len(local) {
		return fmt.Errorf("snapshot shaped %dx%d, set is %dx%d",
			len(data.Central), len(data.Local), len(central), len(local))
	}
	for j := range data.Central {
		if err := data.Central[j].check(); err != nil {
			return fmt.Errorf("snapshot central queue %d: %w", j, err)
		}
	}
	for i := range data.Local {
		if len(data.Local[i]) != len(local[i]) {
			return fmt.Errorf("snapshot site %d has %d job types, set has %d", i, len(data.Local[i]), len(local[i]))
		}
		for j := range data.Local[i] {
			if err := data.Local[i][j].check(); err != nil {
				return fmt.Errorf("snapshot site %d queue %d: %w", i, j, err)
			}
		}
	}
	for j := range central {
		central[j].restore(data.Central[j])
	}
	for i := range local {
		for j := range local[i] {
			local[i][j].restore(data.Local[i][j])
		}
	}
	return nil
}
