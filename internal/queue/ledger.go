// Package queue implements the two-tier queueing substrate of the GreFar
// system: central per-job-type queues Q_j(t) held at the scheduler and local
// per-data-center queues q_{i,j}(t), evolving under the paper's dynamics
//
//	Q_j(t+1) = max[Q_j(t) - sum_i r_{i,j}(t), 0] + a_j(t)      (12)
//	q_{i,j}(t+1) = max[q_{i,j}(t) - h_{i,j}(t), 0] + r_{i,j}(t) (13)
//
// Two implementations are provided. Virtual applies the dynamics literally,
// exactly as the Lyapunov analysis assumes (actions may overshoot the queue
// content and are clipped by the max[.,0]). Set tracks individual job cohorts
// in FIFO ledgers so that per-job queueing delay — the quantity plotted in
// the paper's figures — is measured exactly rather than inferred.
package queue

// entry is one FIFO cohort: an amount of jobs that entered a ledger during
// the same slot.
type entry struct {
	slot   int
	amount float64
}

// Ledger is a FIFO queue of job cohorts for a single (queue, job type) pair.
// Amounts are float64 because processing decisions h_{i,j}(t) may be
// fractional (jobs can be suspended mid-slot).
//
// The zero value is an empty ledger ready for use.
type Ledger struct {
	entries []entry
	head    int // index of the first live entry
	total   float64
}

// Len returns the number of jobs currently queued.
func (l *Ledger) Len() float64 { return l.total }

// Clone returns an independent deep copy: cohort entries, head, and total,
// so the copy can be mutated (or used to restore this ledger) without
// sharing state. Cheap relative to a serialized snapshot — one slice copy.
func (l *Ledger) Clone() Ledger {
	out := *l
	out.entries = append([]entry(nil), l.entries...)
	return out
}

// Push appends amount jobs that entered during the given slot. Pushing a
// non-positive amount is a no-op.
func (l *Ledger) Push(slot int, amount float64) {
	if amount <= 0 {
		return
	}
	// Merge with the tail cohort when the slot matches, so repeated pushes
	// within one slot do not grow the ledger.
	if n := len(l.entries); n > l.head && l.entries[n-1].slot == slot {
		l.entries[n-1].amount += amount
	} else {
		l.entries = append(l.entries, entry{slot: slot, amount: amount})
	}
	l.total += amount
}

// Pop removes up to amount jobs in FIFO order and returns the amount actually
// removed together with the sum of their waiting times (now - entry slot),
// weighted by the amount taken from each cohort. The caller divides the
// weighted sum by the popped amount to obtain the mean delay of this batch.
func (l *Ledger) Pop(now int, amount float64) (popped, delaySum float64) {
	return l.PopVisit(now, amount, nil)
}

// PopVisit is Pop with an optional per-cohort callback receiving the waiting
// time and job count of each batch removed, enabling delay *distributions*
// rather than only means.
func (l *Ledger) PopVisit(now int, amount float64, visit func(delay, jobs float64)) (popped, delaySum float64) {
	for amount > 0 && l.head < len(l.entries) {
		e := &l.entries[l.head]
		take := e.amount
		if take > amount {
			take = amount
		}
		e.amount -= take
		amount -= take
		popped += take
		delay := float64(now - e.slot)
		delaySum += take * delay
		if visit != nil {
			visit(delay, take)
		}
		if e.amount <= 0 {
			l.head++
		}
	}
	l.total -= popped
	if l.total < 0 {
		l.total = 0
	}
	// An emptied ledger rewinds to the start of its slice, so a queue that
	// drains every slot reuses one entry instead of growing a dead prefix.
	// Otherwise compact as soon as the drained prefix outgrows the live
	// cohorts: the array stays within about twice the live cohorts, and each
	// compaction copies fewer entries than were popped since the last, so Pop
	// stays amortized O(1).
	if l.head == len(l.entries) {
		l.entries = l.entries[:0]
		l.head = 0
	} else if l.head*2 > len(l.entries) {
		n := copy(l.entries, l.entries[l.head:])
		l.entries = l.entries[:n]
		l.head = 0
	}
	return popped, delaySum
}

// OldestSlot returns the arrival slot of the job at the head of the queue,
// and false when the ledger is empty.
func (l *Ledger) OldestSlot() (int, bool) {
	if l.head >= len(l.entries) {
		return 0, false
	}
	return l.entries[l.head].slot, true
}
