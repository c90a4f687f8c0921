package queue

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLedgerPushPopFIFO(t *testing.T) {
	var l Ledger
	l.Push(0, 3)
	l.Push(1, 2)
	if got := l.Len(); got != 5 {
		t.Fatalf("Len = %v, want 5", got)
	}

	// Pop 4 at slot 3: takes 3 from slot 0 (delay 3 each) and 1 from slot 1
	// (delay 2).
	popped, delay := l.Pop(3, 4)
	if popped != 4 {
		t.Errorf("popped = %v, want 4", popped)
	}
	if want := 3.0*3 + 1*2; delay != want {
		t.Errorf("delaySum = %v, want %v", delay, want)
	}
	if got := l.Len(); got != 1 {
		t.Errorf("Len = %v, want 1", got)
	}

	// Remaining job is from slot 1.
	if slot, ok := l.OldestSlot(); !ok || slot != 1 {
		t.Errorf("OldestSlot = %v,%v, want 1,true", slot, ok)
	}
}

func TestLedgerPopMoreThanQueued(t *testing.T) {
	var l Ledger
	l.Push(0, 2.5)
	popped, delay := l.Pop(2, 10)
	if popped != 2.5 {
		t.Errorf("popped = %v, want 2.5", popped)
	}
	if delay != 5 {
		t.Errorf("delaySum = %v, want 5", delay)
	}
	if l.Len() != 0 {
		t.Errorf("Len = %v, want 0", l.Len())
	}
	if _, ok := l.OldestSlot(); ok {
		t.Error("OldestSlot reported a job in an empty ledger")
	}
}

func TestLedgerFractionalPops(t *testing.T) {
	var l Ledger
	l.Push(0, 1)
	p1, _ := l.Pop(1, 0.4)
	p2, _ := l.Pop(1, 0.4)
	p3, d3 := l.Pop(2, 0.4)
	if p1 != 0.4 || p2 != 0.4 {
		t.Errorf("partial pops = %v, %v, want 0.4 each", p1, p2)
	}
	if math.Abs(p3-0.2) > 1e-12 {
		t.Errorf("final pop = %v, want 0.2", p3)
	}
	if math.Abs(d3-0.4) > 1e-12 { // 0.2 jobs * delay 2
		t.Errorf("final delaySum = %v, want 0.4", d3)
	}
	if math.Abs(l.Len()) > 1e-12 {
		t.Errorf("Len = %v, want 0", l.Len())
	}
}

func TestLedgerIgnoresNonPositivePush(t *testing.T) {
	var l Ledger
	l.Push(0, 0)
	l.Push(0, -3)
	if l.Len() != 0 {
		t.Errorf("Len = %v, want 0", l.Len())
	}
}

func TestLedgerMergesSameSlotPushes(t *testing.T) {
	var l Ledger
	for x := 0; x < 1000; x++ {
		l.Push(7, 1)
	}
	if len(l.entries) != 1 {
		t.Errorf("entries = %d, want 1 (same-slot pushes should merge)", len(l.entries))
	}
	if l.Len() != 1000 {
		t.Errorf("Len = %v, want 1000", l.Len())
	}
}

func TestLedgerCompaction(t *testing.T) {
	var l Ledger
	for slot := 0; slot < 500; slot++ {
		l.Push(slot, 1)
		l.Pop(slot, 1)
	}
	if l.Len() != 0 {
		t.Fatalf("Len = %v, want 0", l.Len())
	}
	if len(l.entries) > 200 {
		t.Errorf("entries grew to %d; compaction is not working", len(l.entries))
	}
	// Ledger still behaves after compaction.
	l.Push(500, 2)
	popped, delay := l.Pop(501, 2)
	if popped != 2 || delay != 2 {
		t.Errorf("post-compaction Pop = %v,%v, want 2,2", popped, delay)
	}
}

// TestLedgerConservation property: total pushed equals total popped plus
// remaining length, and pops never exceed asks.
func TestLedgerConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		var l Ledger
		var pushed, popped float64
		for slot, op := range ops {
			amt := float64(op%100) / 10
			if op%2 == 0 {
				l.Push(slot, amt)
				pushed += amt
			} else {
				p, d := l.Pop(slot, amt)
				if p > amt+1e-9 || d < -1e-9 {
					return false
				}
				popped += p
			}
		}
		return math.Abs(pushed-popped-l.Len()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLedgerDelayNonNegative property: waiting times are never negative when
// slots are monotone.
func TestLedgerDelayNonNegative(t *testing.T) {
	f := func(ops []uint8) bool {
		var l Ledger
		for slot, op := range ops {
			if op%3 == 0 {
				l.Push(slot, float64(op%7)+0.5)
			} else {
				p, d := l.Pop(slot, float64(op%5)+0.5)
				if p > 0 && d/p < -1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPopVisitConsistency property: the visited cohorts sum to exactly the
// popped amount and the weighted delay sum.
func TestPopVisitConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		var l Ledger
		for slot, op := range ops {
			if op%2 == 0 {
				l.Push(slot, float64(op%9)+0.5)
				continue
			}
			var visitJobs, visitDelay float64
			popped, delaySum := l.PopVisit(slot, float64(op%7)+0.5, func(d, jobs float64) {
				visitJobs += jobs
				visitDelay += d * jobs
			})
			if math.Abs(visitJobs-popped) > 1e-9 || math.Abs(visitDelay-delaySum) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBackloggedLedgerStaysCompact keeps one ledger backlogged for thousands
// of slots — one cohort in and one out every slot, five live throughout — and
// requires its cohort array to stay within a small multiple of the live
// cohorts: a drained prefix is compacted away as soon as it outgrows them,
// not left to grow to a fixed floor first.
func TestBackloggedLedgerStaysCompact(t *testing.T) {
	const live = 5
	var l Ledger
	for slot := 0; slot < live; slot++ {
		l.Push(slot, 1)
	}
	for slot := live; slot < 5000; slot++ {
		l.Push(slot, 1)
		popped, delay := l.Pop(slot, 1)
		if popped != 1 || delay != live {
			t.Fatalf("slot %d: popped %v jobs that waited %v, want 1 and %d", slot, popped, delay, live)
		}
		if n := len(l.entries) - l.head; n != live {
			t.Fatalf("slot %d: %d live cohorts, want %d", slot, n, live)
		}
		if c := cap(l.entries); c > 4*live {
			t.Fatalf("slot %d: cohort array holds %d entries for %d live cohorts", slot, c, live)
		}
	}
}
