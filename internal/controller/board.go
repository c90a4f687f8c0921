package controller

import (
	"sync"

	"grefar/internal/queue"
)

// board is the shared state of the control loop: the authoritative central
// ledgers Q_j plus, for concurrently deciding partitions, a per-row version
// and a running claim total for the slot in flight. Partitions never pop the
// ledgers themselves — they snapshot the claim-reduced lengths, decide
// against them, and commit a claim; the loop executes the merged pops once,
// centrally, after every partition has committed. That keeps the realized routing equal
// to the data-center-order consumption of the merged nominal route, which is
// exactly what the invariant checker's flow rules demand.
//
// Optimistic concurrency, Arktos-style: a commit that wants jobs from row j
// validates that no other partition's commit advanced row j since its
// snapshot; on a version mismatch the commit is rejected and the partition
// re-snapshots and re-decides. Conflict = overlapping central-queue claims,
// nothing else — rows a partition only read but did not claim from never
// conflict.
type board struct {
	mu      sync.Mutex
	ledgers []queue.Ledger
	version []uint64  // bumped once per committed claim that takes jobs from the row
	claimed []float64 // jobs claimed this slot, per row; reset at slot start
}

func newBoard(rows int) *board {
	return &board{
		ledgers: make([]queue.Ledger, rows),
		version: make([]uint64, rows),
		claimed: make([]float64, rows),
	}
}

// view is one partition's read of the board: claim-reduced row lengths and
// the versions they were read at.
type view struct {
	lens     []float64
	versions []uint64
}

// snapshot returns the current claim-reduced lengths and row versions.
func (b *board) snapshot() view {
	b.mu.Lock()
	defer b.mu.Unlock()
	v := view{lens: make([]float64, len(b.ledgers)), versions: make([]uint64, len(b.ledgers))}
	for j := range b.ledgers {
		rem := b.ledgers[j].Len() - b.claimed[j]
		if rem < 0 {
			rem = 0
		}
		v.lens[j] = rem
		v.versions[j] = b.version[j]
	}
	return v
}

// claim registers a partition's intended pops (want[j] = nominal routed jobs
// from row j). With validate set, the claim is rejected — and nothing is
// registered — if any row the partition wants jobs from advanced since its
// snapshot. Claims are capped at remaining content; a row's version bumps
// only when the claim actually takes jobs, so partitions draining disjoint
// rows never conflict.
func (b *board) claim(v view, want []float64, validate bool) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if validate {
		for j, w := range want {
			if w > 0 && b.version[j] != v.versions[j] {
				return false
			}
		}
	}
	for j, w := range want {
		if w <= 0 {
			continue
		}
		rem := b.ledgers[j].Len() - b.claimed[j]
		if rem < 0 {
			rem = 0
		}
		take := w
		if take > rem {
			take = rem
		}
		if take > 0 {
			b.claimed[j] += take
			b.version[j]++
		}
	}
	return true
}

// resetClaims opens a new slot: the previous slot's claims were realized (or
// restored) on the ledgers themselves.
func (b *board) resetClaims() {
	b.mu.Lock()
	for j := range b.claimed {
		b.claimed[j] = 0
	}
	b.mu.Unlock()
}

// lensUnclaimed returns the true ledger lengths (no claim reduction) — the
// slot-initial central backlog used for state assembly, telemetry, and the
// decide-once path.
func (b *board) lensUnclaimed() []float64 {
	out := make([]float64, len(b.ledgers))
	for j := range b.ledgers {
		out[j] = b.ledgers[j].Len()
	}
	return out
}
