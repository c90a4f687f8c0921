package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// startMux spins up a MuxServer on loopback TCP with the given handler and
// returns it with a connected client; both are torn down with the test.
func startMux(t *testing.T, h MuxHandler) (*MuxServer, *MuxClient) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewMuxServer(lis, h)
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	cli, err := DialMux(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// echoMux answers pings with the target folded into the nonce so tests can
// verify routing.
func echoMux(dst []byte, target int, kind string, body []byte) ([]byte, error) {
	var p Ping
	if err := Unmarshal(body, &p); err != nil {
		return nil, err
	}
	p.Nonce += uint64(target) * 1000
	return Append(dst, &p)
}

func TestMuxRoutesByTarget(t *testing.T) {
	_, cli := startMux(t, echoMux)
	for target := 0; target < 5; target++ {
		var pong Ping
		if err := cli.Agent(target).Call(KindPing, Ping{Nonce: 7}, &pong); err != nil {
			t.Fatalf("target %d: %v", target, err)
		}
		if want := uint64(7 + target*1000); pong.Nonce != want {
			t.Errorf("target %d answered nonce %d, want %d", target, pong.Nonce, want)
		}
	}
}

// TestMuxPipelinesConcurrentCalls proves a slow target does not serialize the
// rest: N calls that each stall 30ms must complete together, far under N*30ms.
func TestMuxPipelinesConcurrentCalls(t *testing.T) {
	const n = 16
	_, cli := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		time.Sleep(30 * time.Millisecond)
		return echoMux(dst, target, kind, body)
	})
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var pong Ping
			errs[i] = cli.Agent(i).Call(KindPing, Ping{Nonce: uint64(i)}, &pong)
			if errs[i] == nil && pong.Nonce != uint64(i+i*1000) {
				errs[i] = fmt.Errorf("target %d got nonce %d", i, pong.Nonce)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	// Sequential round-trips would take n*30ms = 480ms; pipelined they share
	// the stall. The bound is loose to survive CI scheduling noise.
	if elapsed > 300*time.Millisecond {
		t.Errorf("%d pipelined 30ms calls took %v; transport is serializing", n, elapsed)
	}
}

func TestMuxRemoteErrorAndConcurrentMix(t *testing.T) {
	_, cli := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		if target%2 == 1 {
			return nil, fmt.Errorf("target %d is down", target)
		}
		return echoMux(dst, target, kind, body)
	})
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var pong Ping
			err := cli.Agent(i).Call(KindPing, Ping{Nonce: 1}, &pong)
			if i%2 == 1 {
				var re *RemoteError
				if !errors.As(err, &re) {
					t.Errorf("target %d: err = %v, want RemoteError", i, err)
				}
			} else if err != nil {
				t.Errorf("target %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestMuxCallTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv, _ := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		<-block
		return Append(dst, Ping{})
	})
	cli, err := DialMux(srv.Addr(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	start := time.Now()
	if err := cli.Agent(0).Call(KindPing, Ping{}, nil); !errors.Is(err, ErrCallTimeout) {
		t.Errorf("err = %v, want ErrCallTimeout", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout took far too long")
	}
}

func TestMuxContextCancelAbortsCall(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, cli := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		<-block
		return Append(dst, Ping{})
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := cli.Agent(0).CallContext(ctx, KindPing, Ping{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Error("cancellation did not abort the call promptly")
	}
}

func TestMuxServerCloseFailsPendingCalls(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	srv, cli := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		<-block
		return Append(dst, Ping{})
	})
	errCh := make(chan error, 1)
	go func() { errCh <- cli.Agent(0).Call(KindPing, Ping{}, nil) }()
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("call against a closed server succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call did not fail after server close")
	}
}

func TestMuxClosedClient(t *testing.T) {
	_, cli := startMux(t, echoMux)
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Agent(0).Call(KindPing, Ping{}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if err := cli.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestMuxControlLoopShapes runs the real message kinds (state, allocate)
// through the mux wire to prove the framing round-trips typed bodies.
func TestMuxControlLoopShapes(t *testing.T) {
	_, cli := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		switch kind {
		case KindState:
			var req StateRequest
			if err := Unmarshal(body, &req); err != nil {
				return nil, err
			}
			return Append(dst, &StateReport{
				Slot: req.Slot, DataCenter: target,
				Price: 0.5, Avail: []float64{3}, QueueLens: []float64{1, 2},
			})
		case KindAllocate:
			var req Allocate
			if err := Unmarshal(body, &req); err != nil {
				return nil, err
			}
			return Append(dst, &AllocateAck{Slot: req.Slot, Processed: make([]float64, len(req.Process)), DelaySum: make([]float64, len(req.Process))})
		}
		return nil, fmt.Errorf("unknown kind %q", kind)
	})
	var rep StateReport
	if err := cli.Agent(3).Call(KindState, StateRequest{Slot: 9}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.DataCenter != 3 || rep.Slot != 9 {
		t.Errorf("report = %+v", rep)
	}
	if err := rep.Validate(3, 9, 1, 2); err != nil {
		t.Errorf("round-tripped report invalid: %v", err)
	}
	var ack AllocateAck
	if err := cli.Agent(3).Call(KindAllocate, Allocate{Slot: 9, Route: []int{0, 1}, Process: []float64{0, 1}, Busy: []float64{1}}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Slot != 9 {
		t.Errorf("ack slot = %d", ack.Slot)
	}
}

// TestMuxShutdownLeaksNoGoroutines pins the lifecycle: a served fleet of
// calls followed by client and server shutdown must return the process to
// its pre-test goroutine count.
func TestMuxShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewMuxServer(lis, echoMux)
	go srv.Serve()
	cli, err := DialMux(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Batches first: their frames and helper shares leave workers parked,
	// which Close must release.
	for b := 0; b < 4; b++ {
		calls := make([]BatchCall, 8)
		for i := range calls {
			calls[i] = BatchCall{Target: i, Kind: KindPing, Req: Ping{Nonce: 1}}
		}
		if err := cli.CallBatch(context.Background(), calls); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "a parked worker", func() bool { return srv.parked.Load() > 0 })
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var pong Ping
			if err := cli.Agent(i).Call(KindPing, Ping{Nonce: 1}, &pong); err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	cli.Close()
	srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines: %d before, %d after shutdown", before, got)
	}
}

// TestMuxEncodeFailurePoisonsClient pins the poisoning contract: a write that
// dies mid-frame leaves the shared stream in an unknown state, so the
// client must refuse all later calls with a typed error rather than emitting
// garbage frames or hanging. The failed write is forced by pointing the
// client at a peer that accepts but never reads, then pushing a payload far
// larger than the kernel socket buffers under a short write deadline.
func TestMuxEncodeFailurePoisonsClient(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		<-done // hold the connection open without ever reading
		conn.Close()
	}()
	cli, err := DialMux(lis.Addr().String(), 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	payload := make([]byte, 32<<20)
	err = cli.CallTarget(context.Background(), 0, KindPing, payload, nil)
	if err == nil {
		t.Fatal("32MB write to a never-reading peer succeeded; wanted a deadline failure")
	}

	start := time.Now()
	err = cli.CallTarget(context.Background(), 0, KindPing, Ping{Nonce: 1}, nil)
	if !errors.Is(err, ErrClientPoisoned) {
		t.Fatalf("post-failure call returned %v, want ErrClientPoisoned", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("post-failure call took %v; poisoned clients must fail fast", elapsed)
	}
	var calls = []BatchCall{{Target: 0, Kind: KindPing, Req: Ping{Nonce: 2}}}
	if err := cli.CallBatch(context.Background(), calls); !errors.Is(err, ErrClientPoisoned) {
		t.Fatalf("post-failure batch returned %v, want ErrClientPoisoned", err)
	}
}

// TestMuxBatchRoundTrip exercises the batched call surface end to end:
// responses land in call order, per-call handler errors surface as that
// call's RemoteError without failing the batch, and targets are routed.
func TestMuxBatchRoundTrip(t *testing.T) {
	_, cli := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		if target == 3 {
			return nil, fmt.Errorf("target 3 rejects")
		}
		return echoMux(dst, target, kind, body)
	})
	calls := make([]BatchCall, 5)
	pongs := make([]Ping, 5)
	for i := range calls {
		calls[i] = BatchCall{Target: i, Kind: KindPing, Req: Ping{Nonce: 7}, Resp: &pongs[i]}
	}
	if err := cli.CallBatch(context.Background(), calls); err != nil {
		t.Fatal(err)
	}
	for i := range calls {
		if i == 3 {
			var re *RemoteError
			if !errors.As(calls[i].Err, &re) {
				t.Fatalf("call 3 err = %v, want RemoteError", calls[i].Err)
			}
			continue
		}
		if calls[i].Err != nil {
			t.Fatalf("call %d: %v", i, calls[i].Err)
		}
		if want := uint64(7 + i*1000); pongs[i].Nonce != want {
			t.Errorf("call %d answered nonce %d, want %d", i, pongs[i].Nonce, want)
		}
	}
	if err := cli.CallBatch(context.Background(), nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestMuxBatchFansOutConcurrently pins the batch dispatch contract: the items
// of one batch frame run on min(GOMAXPROCS, items) workers, each item exactly
// once, replies in item order, a handler error failing only its own call; k
// slow handlers therefore cost ceil(k/workers) of them, not one and not k.
// Frames on different connections still run concurrently.
func TestMuxBatchFansOutConcurrently(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)

	t.Run("one batch", func(t *testing.T) {
		const stall = 30 * time.Millisecond
		k := 4*workers + 1
		rounds := (k + workers - 1) / workers
		var mu sync.Mutex
		handled := make([]int, k)
		running, peak := 0, 0
		_, cli := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
			mu.Lock()
			handled[target]++
			running++
			peak = max(peak, running)
			mu.Unlock()
			time.Sleep(stall)
			mu.Lock()
			running--
			mu.Unlock()
			if target == 2 {
				return nil, fmt.Errorf("target 2 rejects")
			}
			return echoMux(dst, target, kind, body)
		})
		calls := make([]BatchCall, k)
		pongs := make([]Ping, k)
		for i := range calls {
			calls[i] = BatchCall{Target: i, Kind: KindPing, Req: Ping{Nonce: 1}, Resp: &pongs[i]}
		}
		start := time.Now()
		if err := cli.CallBatch(context.Background(), calls); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		for i := range calls {
			if handled[i] != 1 {
				t.Errorf("item %d handled %d times, want once", i, handled[i])
			}
			var re *RemoteError
			switch {
			case i == 2 && !errors.As(calls[i].Err, &re):
				t.Errorf("call 2 err = %v, want RemoteError", calls[i].Err)
			case i != 2 && calls[i].Err != nil:
				t.Errorf("call %d: %v", i, calls[i].Err)
			case i != 2 && pongs[i].Nonce != uint64(1+i*1000):
				t.Errorf("reply %d carries nonce %d, want target %d's", i, pongs[i].Nonce, i)
			}
		}
		if peak > workers {
			t.Errorf("%d handlers of one batch ran at once, bound is GOMAXPROCS = %d", peak, workers)
		}
		// time.Sleep never returns early, so with at most `workers` handlers
		// at once the lower bound holds on any box; the upper one is loose and
		// only separates fan-out from a serial walk of the batch.
		if floor := time.Duration(rounds) * stall; elapsed < floor {
			t.Errorf("%d stalling handlers on %d workers took %v, under %d stalls: more than %d ran at once", k, workers, elapsed, rounds, workers)
		}
		if workers > 1 {
			if peak < 2 {
				t.Errorf("peak handler concurrency %d with %d workers; want fan-out", peak, workers)
			}
			if serial := time.Duration(k) * stall; elapsed >= serial {
				t.Errorf("%d stalling handlers on %d workers took %v, a serial walk costs %v", k, workers, elapsed, serial)
			}
		}
	})

	// Each batch's handlers wait for the other batch to have started: were
	// frames on different connections serialized, neither could finish.
	t.Run("two connections overlap", func(t *testing.T) {
		started := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
		var once [2]sync.Once
		srv, cliA := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
			batch := target / 100
			once[batch].Do(func() { close(started[batch]) })
			select {
			case <-started[1-batch]:
				return echoMux(dst, target, kind, body)
			case <-time.After(5 * time.Second):
				return nil, fmt.Errorf("batch %d never saw batch %d start", batch, 1-batch)
			}
		})
		cliB, err := DialMux(srv.Addr(), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cliB.Close()
		var wg sync.WaitGroup
		for b, cli := range []*MuxClient{cliA, cliB} {
			wg.Add(1)
			go func(b int, cli *MuxClient) {
				defer wg.Done()
				calls := make([]BatchCall, 3)
				for i := range calls {
					calls[i] = BatchCall{Target: b*100 + i, Kind: KindPing, Req: Ping{Nonce: 1}}
				}
				if err := cli.CallBatch(context.Background(), calls); err != nil {
					t.Errorf("batch %d: %v", b, err)
					return
				}
				for i := range calls {
					if calls[i].Err != nil {
						t.Errorf("batch %d call %d: %v", b, i, calls[i].Err)
					}
				}
			}(b, cli)
		}
		wg.Wait()
	})
}

// TestMuxLateRepliesNeverCrossCalls races the recycled per-call objects: a
// third of the calls time out at the client while their replies are still on
// the way, so reply channels and timers go back to their pools with a late
// response pending and are handed to other calls at once. Every call that
// succeeds must have received its own nonce, never a neighbour's late reply.
func TestMuxLateRepliesNeverCrossCalls(t *testing.T) {
	srv, _ := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		var p Ping
		if err := Unmarshal(body, &p); err != nil {
			return nil, err
		}
		if p.Nonce%3 == 0 {
			time.Sleep(25 * time.Millisecond) // outlive the client's 10ms timeout
		}
		return Append(dst, &p)
	})
	cli, err := DialMux(srv.Addr(), 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const workers, calls = 8, 60
	var ok, late atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < calls; k++ {
				nonce := uint64(w*calls + k)
				var pong Ping
				err := cli.Agent(w).Call(KindPing, Ping{Nonce: nonce}, &pong)
				switch {
				case errors.Is(err, ErrCallTimeout):
					late.Add(1)
				case err != nil:
					t.Errorf("call %d: %v", nonce, err)
				case pong.Nonce != nonce:
					t.Errorf("call %d received the reply to call %d", nonce, pong.Nonce)
				default:
					ok.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if ok.Load() == 0 || late.Load() == 0 {
		t.Errorf("%d calls answered, %d timed out; the test needs both", ok.Load(), late.Load())
	}
}

// TestMuxDropsReplyNobodyWaitsFor answers the first request under an id no
// call holds — the stream fault that used to leave a client matching replies
// by position one reply behind for good. Here the frame is dropped, the call
// it should have answered times out on its own, and the next call on the same
// connection gets its own reply.
func TestMuxDropsReplyNobodyWaitsFor(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var in []byte
		for first := true; ; first = false {
			if in, err = readFrame(br, in[:0]); err != nil {
				return
			}
			req, err := parseFrame(in)
			if err != nil {
				return
			}
			if first {
				req.ID += 98
			}
			reply, _ := appendFrame(nil, req.ID, req.Target, req.Kind, "", req.Body)
			conn.Write(reply)
		}
	}()
	cli, err := DialMux(lis.Addr().String(), 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var pong Ping
	if err := cli.Agent(0).Call(KindPing, Ping{Nonce: 1}, &pong); !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("call answered under a stranger's id: err = %v, want ErrCallTimeout", err)
	}
	if err := cli.Agent(0).Call(KindPing, Ping{Nonce: 2}, &pong); err != nil || pong.Nonce != 2 {
		t.Fatalf("call after the stray reply: nonce %d, err %v", pong.Nonce, err)
	}
}

// halfThenFail is the handler of the append-contract tests: kind "huge"
// extends the reply past the frame cap (without touching the new bytes, so
// the pages are never resident); odd nonces append half a reply and then
// fail; everything else is echoMux.
func halfThenFail(dst []byte, target int, kind string, body []byte) ([]byte, error) {
	if kind == "huge" {
		n := len(dst) + maxFrame + 1
		return slices.Grow(dst, maxFrame+1)[:n], nil
	}
	var p Ping
	if err := Unmarshal(body, &p); err != nil {
		return nil, err
	}
	if p.Nonce%2 == 1 {
		return append(dst, "half a reply, then"...), fmt.Errorf("target %d rejects nonce %d", target, p.Nonce)
	}
	return echoMux(dst, target, kind, body)
}

// TestBatchItemFailingAfterAppend holds the batch half of the append
// contract at the byte level: a handler that has already appended when it
// fails contributes its error string and an empty body — nothing it wrote —
// while its neighbours, served by the same worker into the same buffer, are
// intact and in item order. On one worker and on several.
func TestBatchItemFailingAfterAppend(t *testing.T) {
	const items = 23
	var body []byte
	body = binary.AppendUvarint(body, items)
	for i := 0; i < items; i++ {
		body = appendInt(body, i)
		body = appendString(body, KindPing)
		var err error
		if body, err = appendNested(body, &Ping{Nonce: uint64(i % 3)}); err != nil { // items 1, 4, 7, ... fail
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		srv := NewMuxServer(nil, halfThenFail)
		out, err := srv.serveBatch([]byte("earlier frame"), frame{ID: 9, Target: -1, Kind: KindBatch, Body: body})
		close(srv.quit) // release the helpers this batch parked
		if err != nil {
			t.Fatal(err)
		}
		out = bytes.TrimPrefix(out, []byte("earlier frame"))
		if n := int(binary.LittleEndian.Uint32(out)); n != len(out)-4 {
			t.Fatalf("procs=%d: frame declares %d bytes, carries %d", procs, n, len(out)-4)
		}
		reply, err := parseFrame(out[4:])
		if err != nil || reply.ID != 9 || reply.Kind != KindBatch || reply.Err != "" {
			t.Fatalf("procs=%d: reply frame %+v, err %v", procs, reply, err)
		}
		if n, err := checkBatchReplies(reply.Body); err != nil || n != items {
			t.Fatalf("procs=%d: %d replies, err %v", procs, n, err)
		}
		d := decoder{b: reply.Body}
		d.count(minBatchReply)
		for i := 0; i < items; i++ {
			errMsg, nested := string(d.view()), d.nested()
			if i%3 == 1 {
				if want := fmt.Sprintf("target %d rejects nonce 1", i); errMsg != want || len(nested) != 0 {
					t.Errorf("procs=%d item %d: err %q with a %d-byte body, want %q and no body", procs, i, errMsg, len(nested), want)
				}
				continue
			}
			var pong Ping
			if err := Unmarshal(nested, &pong); errMsg != "" || err != nil || pong.Nonce != uint64(i%3+i*1000) {
				t.Errorf("procs=%d item %d: err %q, decode %v, nonce %d", procs, i, errMsg, err, pong.Nonce)
			}
		}
	}
}

// TestMuxOversizedReplyIsAnErrorReply: a reply over the frame cap reaches the
// caller as that call's error — alone or inside a batch — and the connection
// carries the next call, so no part of the oversized frame was written.
func TestMuxOversizedReplyIsAnErrorReply(t *testing.T) {
	srv, _ := startMux(t, halfThenFail)
	// The race detector takes seconds to map a frame's worth of memory.
	cli, err := DialMux(srv.Addr(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	var re *RemoteError
	err = cli.Agent(1).Call("huge", Ping{}, nil)
	if !errors.As(err, &re) || !strings.Contains(re.Message, ErrFrameTooLarge.Error()) {
		t.Fatalf("oversized reply: err = %v, want a remote ErrFrameTooLarge", err)
	}
	pongs := make([]Ping, 3)
	calls := []BatchCall{
		{Target: 0, Kind: KindPing, Req: Ping{Nonce: 2}, Resp: &pongs[0]},
		{Target: 1, Kind: "huge", Req: Ping{}, Resp: &pongs[1]},
		{Target: 2, Kind: KindPing, Req: Ping{Nonce: 4}, Resp: &pongs[2]},
	}
	if err := cli.CallBatch(context.Background(), calls); err != nil {
		t.Fatal(err)
	}
	if !errors.As(calls[1].Err, &re) || !strings.Contains(re.Message, ErrFrameTooLarge.Error()) {
		t.Errorf("oversized batch item: err = %v, want a remote ErrFrameTooLarge", calls[1].Err)
	}
	if calls[0].Err != nil || calls[2].Err != nil || pongs[0].Nonce != 2 || pongs[2].Nonce != 2004 {
		t.Errorf("neighbours of the oversized item: %v %+v, %v %+v", calls[0].Err, pongs[0], calls[2].Err, pongs[2])
	}
	var pong Ping
	if err := cli.Agent(3).Call(KindPing, Ping{Nonce: 6}, &pong); err != nil || pong.Nonce != 3006 {
		t.Errorf("call after the oversized replies: nonce %d, err %v", pong.Nonce, err)
	}
}

// waitFor polls cond for up to five seconds and fails the test if it never
// holds: a worker parks just after writing its reply, so the caller may see
// the reply first.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("gave up waiting for %s", what)
		}
	}
}

// TestMuxStalledFrameBlocksOnlyItself holds the parked-worker rule to the
// per-frame contract: once every parked worker is stuck in a handler, the
// next frame on the same connection still gets a worker of its own and is
// answered at once.
func TestMuxStalledFrameBlocksOnlyItself(t *testing.T) {
	release := make(chan struct{})
	var stalled atomic.Int64
	srv, cli := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		if target == 0 {
			stalled.Add(1)
			<-release
		}
		return echoMux(dst, target, kind, body)
	})
	// Park some workers: concurrent calls end as idle workers.
	var wg sync.WaitGroup
	for i := 1; i <= 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := cli.Agent(i).Call(KindPing, Ping{Nonce: 1}, nil); err != nil {
				t.Errorf("warm-up call %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	waitFor(t, "a parked worker", func() bool { return srv.parked.Load() > 0 })

	// Stall frames until no worker is left parked. A worker counts itself
	// parked just before it waits, so keep stalling until the count is zero.
	const maxStalls = 4 * maxParkedWorkers
	errs := make(chan error, maxStalls)
	stalls := 0
	for stalls < 8 || srv.parked.Load() > 0 {
		if stalls == maxStalls {
			t.Fatalf("%d workers still parked after %d stalled frames", srv.parked.Load(), stalls)
		}
		stalls++
		go func() { errs <- cli.Agent(0).Call(KindPing, Ping{Nonce: 1}, nil) }()
		waitFor(t, "the stalled frame in its handler", func() bool { return stalled.Load() == int64(stalls) })
	}

	start := time.Now()
	var pong Ping
	if err := cli.Agent(7).Call(KindPing, Ping{Nonce: 2}, &pong); err != nil || pong.Nonce != 7002 {
		t.Fatalf("call behind the stalled frames: nonce %d, err %v", pong.Nonce, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("a free frame waited %v behind stalled ones", d)
	}
	close(release)
	for k := 0; k < stalls; k++ {
		if err := <-errs; err != nil {
			t.Errorf("stalled call: %v", err)
		}
	}
}

// pingBatch builds n ping calls to targets 0..n-1 carrying the nonce, with
// their replies landing in a fresh slice.
func pingBatch(n int, nonce uint64) ([]BatchCall, []Ping) {
	calls, pongs := make([]BatchCall, n), make([]Ping, n)
	for i := range calls {
		calls[i] = BatchCall{Target: i, Kind: KindPing, Req: Ping{Nonce: nonce}, Resp: &pongs[i]}
	}
	return calls, pongs
}

// TestStartBatchWait holds the split batch surface to CallBatch's rules: Wait
// gives up on ctx and on the client timeout, a closed client refuses a start
// and fails a wait, and the late reply of an abandoned batch never reaches the
// next one.
func TestStartBatchWait(t *testing.T) {
	// Nonce 1 stalls until released, or for 150 ms when release is nil.
	stallingServer := func(t *testing.T, release chan struct{}) *MuxServer {
		srv, _ := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
			var p Ping
			if err := Unmarshal(body, &p); err != nil {
				return nil, err
			}
			if p.Nonce == 1 {
				if release != nil {
					<-release
				} else {
					time.Sleep(150 * time.Millisecond)
				}
			}
			return echoMux(dst, target, kind, body)
		})
		return srv
	}
	dial := func(t *testing.T, srv *MuxServer, timeout time.Duration) *MuxClient {
		cli, err := DialMux(srv.Addr(), timeout)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return cli
	}

	t.Run("ctx cancel", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		cli := dial(t, stallingServer(t, release), 5*time.Second)
		calls, _ := pingBatch(3, 1)
		b, err := cli.StartBatch(calls)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		start := time.Now()
		if err := b.Wait(ctx, calls); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want the context's", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("cancellation took %v", d)
		}
	})

	t.Run("timeout counts from the send", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		const timeout = 100 * time.Millisecond
		cli := dial(t, stallingServer(t, release), timeout)
		calls, _ := pingBatch(3, 1)
		b, err := cli.StartBatch(calls)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(timeout)
		start := time.Now()
		if err := b.Wait(context.Background(), calls); !errors.Is(err, ErrCallTimeout) {
			t.Errorf("err = %v, want ErrCallTimeout", err)
		}
		if d := time.Since(start); d > timeout/2 {
			t.Errorf("a wait begun after the timeout waited %v more", d)
		}
	})

	t.Run("closed client", func(t *testing.T) {
		release := make(chan struct{})
		defer close(release)
		cli := dial(t, stallingServer(t, release), 5*time.Second)
		calls, _ := pingBatch(2, 1)
		b, err := cli.StartBatch(calls)
		if err != nil {
			t.Fatal(err)
		}
		cli.Close()
		if err := b.Wait(context.Background(), calls); err == nil {
			t.Error("a batch in flight when its client closed was answered")
		}
		if _, err := cli.StartBatch(calls); !errors.Is(err, ErrClosed) {
			t.Errorf("start on a closed client: err = %v, want ErrClosed", err)
		}
	})

	t.Run("late reply to an abandoned batch", func(t *testing.T) {
		cli := dial(t, stallingServer(t, nil), 50*time.Millisecond)
		calls, _ := pingBatch(3, 1)
		b, err := cli.StartBatch(calls)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Wait(context.Background(), calls); !errors.Is(err, ErrCallTimeout) {
			t.Fatalf("err = %v, want ErrCallTimeout", err)
		}
		// The abandoned batch's reply lands while the next one is in flight.
		next, pongs := pingBatch(3, 2)
		if b, err = cli.StartBatch(next); err != nil {
			t.Fatal(err)
		}
		time.Sleep(150 * time.Millisecond)
		if err := b.Wait(context.Background(), next); err != nil {
			t.Fatal(err)
		}
		for i := range next {
			if next[i].Err != nil || pongs[i].Nonce != uint64(2+i*1000) {
				t.Errorf("call %d: nonce %d, err %v; want its own reply", i, pongs[i].Nonce, next[i].Err)
			}
		}
	})

	t.Run("empty batch", func(t *testing.T) {
		cli := dial(t, stallingServer(t, nil), time.Second)
		b, err := cli.StartBatch(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Wait(context.Background(), nil); err != nil {
			t.Errorf("empty batch: %v", err)
		}
	})
}

// TestHungWiresCostOneTimeout sends a batch on each of four clients whose
// handlers never answer in time, then waits on them one after another, as the
// control loop does: the four timeouts run from the four sends, so together
// they cost about one timeout, not four.
func TestHungWiresCostOneTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, _ := startMux(t, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		<-release
		return echoMux(dst, target, kind, body)
	})
	const wires, timeout = 4, 200 * time.Millisecond
	clients := make([]*MuxClient, wires)
	for w := range clients {
		cli, err := DialMux(srv.Addr(), timeout)
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		clients[w] = cli
	}
	calls := make([][]BatchCall, wires)
	batches := make([]Batch, wires)
	start := time.Now()
	for w, cli := range clients {
		calls[w], _ = pingBatch(3, 1)
		var err error
		if batches[w], err = cli.StartBatch(calls[w]); err != nil {
			t.Fatal(err)
		}
	}
	for w, b := range batches {
		if err := b.Wait(context.Background(), calls[w]); !errors.Is(err, ErrCallTimeout) {
			t.Errorf("wire %d: err = %v, want ErrCallTimeout", w, err)
		}
	}
	if d := time.Since(start); d < timeout || d >= 2*timeout {
		t.Errorf("%d hung wires took %v; want one timeout (%v), not %d", wires, d, timeout, wires)
	}
}
