// Package runner is the deterministic parallel sweep engine: it fans a fixed
// number of independent tasks out across a bounded worker pool and collects
// their results in task order, so a sweep driven through it is byte-identical
// to the same sweep run serially. The experiments of the paper's evaluation
// (one full simulation per scheduler/V/seed point) are exactly this shape —
// every task builds its own inputs from a seed and shares no mutable state —
// which is also the structural argument of the distributed-control related
// work: independent per-system subproblems run concurrently, with
// coordination only at aggregation.
//
// Determinism contract:
//
//   - Results are delivered indexed: result i is whatever task i returned,
//     regardless of completion order.
//   - Error propagation is by lowest task index, not by wall-clock order:
//     if tasks 4 and 2 both fail, Map returns task 2's error every time.
//   - Tasks must not share mutable state; the pool adds no synchronization
//     beyond completion. Run each task against its own inputs (verified
//     repo-wide under -race).
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// DefaultWorkers resolves a worker-count knob: values <= 0 select
// GOMAXPROCS, everything else passes through. Map applies it, so
// callers can thread a zero-valued "use the hardware" default from flags and
// config structs without special-casing.
func DefaultWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Map runs fn(ctx, i) for every i in [0, n) on a pool of at most workers
// goroutines and returns the n results in index order. workers <= 0 selects
// GOMAXPROCS; workers == 1 degenerates to a serial loop on the calling
// goroutine, with no goroutines spawned.
//
// The first failure — by task index, for determinism — cancels the context
// passed to the remaining tasks and stops new tasks from starting; Map then
// waits for in-flight tasks to return before reporting that error. When ctx
// is canceled externally, Map returns an error wrapping ctx.Err(). A nil ctx
// means the sweep cannot be interrupted.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("runner: negative task count %d", n)
	}
	if fn == nil {
		return nil, fmt.Errorf("runner: nil task function")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers = DefaultWorkers(workers)
	if workers > n {
		workers = n
	}

	if workers == 1 {
		// Serial fast path: same semantics, no goroutines, so single-worker
		// sweeps keep their exact serial profile (and stack traces).
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("runner: task %d not started: %w", i, err)
			}
			r, err := fn(ctx, i)
			if err != nil {
				return nil, fmt.Errorf("runner: task %d: %w", i, err)
			}
			out[i] = r
		}
		return out, nil
	}

	// Parallel path: workers pull indices from a shared counter; each writes
	// only its own result slot, so the slice needs no locking. Failures are
	// recorded per index and resolved to the lowest failed index at the end.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if runCtx.Err() != nil {
					return // canceled: stop claiming new tasks
				}
				i, ok := claim()
				if !ok {
					return
				}
				r, err := fn(runCtx, i)
				if err != nil {
					errs[i] = err
					cancel() // first failure drains the pool
					continue
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: task %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		// External cancellation with no task failure: some tasks never ran.
		return nil, fmt.Errorf("runner: sweep canceled: %w", err)
	}
	return out, nil
}
