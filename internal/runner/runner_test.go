package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			n := 50
			got, err := Map(context.Background(), workers, n, func(_ context.Context, i int) (int, error) {
				return i * i, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("got %d results, want %d", len(got), n)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestMapZeroTasks(t *testing.T) {
	got, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("task ran for n=0")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got (%v, %v), want empty and nil", got, err)
	}
}

func TestMapRejectsBadArguments(t *testing.T) {
	if _, err := Map(context.Background(), 2, -1, func(_ context.Context, i int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := Map[int](context.Background(), 2, 3, nil); err == nil {
		t.Error("nil fn accepted")
	}
}

// TestMapPropagatesLowestIndexError pins the determinism contract: with
// several failing tasks racing, the reported error is always the one with the
// lowest index.
func TestMapPropagatesLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for trial := 0; trial < 20; trial++ {
		_, err := Map(context.Background(), 8, 16, func(_ context.Context, i int) (int, error) {
			switch i {
			case 3:
				return 0, errLow
			case 11:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("trial %d: got %v, want the index-3 error", trial, err)
		}
	}
}

// TestMapCancelsRemainingTasksOnError verifies a failure stops the sweep:
// tasks observe the canceled pool context, and far fewer than n tasks start
// once the failure has been seen.
func TestMapCancelsRemainingTasksOnError(t *testing.T) {
	boom := errors.New("boom")
	var canceledSeen atomic.Bool
	_, err := Map(context.Background(), 2, 1000, func(ctx context.Context, i int) (int, error) {
		if i == 0 {
			return 0, boom
		}
		if ctx.Err() != nil {
			canceledSeen.Store(true)
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
}

func TestMapHonorsContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	var once sync.Once
	_, err := Map(ctx, 2, 1000, func(ctx context.Context, i int) (int, error) {
		started.Add(1)
		once.Do(func() {
			cancel()
			close(release)
		})
		<-release
		return i, ctx.Err()
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("%d tasks started after cancellation, want early stop", n)
	}
}

func TestMapSerialPathChecksContextBetweenTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	_, err := Map(ctx, 1, 10, func(_ context.Context, i int) (int, error) {
		ran++
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Fatalf("ran %d tasks after cancel at task 2, want 3", ran)
	}
}

// TestMapBoundsConcurrency tracks the high-water mark of concurrently running
// tasks and requires it never exceeds the pool size.
func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	_, err := Map(context.Background(), workers, 200, func(_ context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		runtime.Gosched()
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, pool size is %d", p, workers)
	}
}

func TestMapNilContext(t *testing.T) {
	got, err := Map(nil, 2, 4, func(ctx context.Context, i int) (int, error) {
		if ctx == nil {
			return 0, errors.New("nil ctx passed to task")
		}
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %d results, want 4", len(got))
	}
}

func TestDefaultWorkers(t *testing.T) {
	if got := DefaultWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("DefaultWorkers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := DefaultWorkers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("DefaultWorkers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := DefaultWorkers(5); got != 5 {
		t.Errorf("DefaultWorkers(5) = %d, want 5", got)
	}
}
