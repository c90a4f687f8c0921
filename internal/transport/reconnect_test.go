package transport

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

func TestReconnectClientSurvivesServerRestart(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	srv := NewMuxServer(lis, echoHandler)
	go srv.Serve()

	c := NewReconnectClient(addr, time.Second, 3)
	defer c.Close()
	var resp Ping
	if err := c.Call(KindPing, Ping{Nonce: 1}, &resp); err != nil {
		t.Fatal(err)
	}

	// Kill the server; the established connection is now dead.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same address.
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewMuxServer(lis2, echoHandler)
	go srv2.Serve()
	defer srv2.Close()

	// The call must transparently redial and succeed.
	if err := c.Call(KindPing, Ping{Nonce: 2}, &resp); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if resp.Nonce != 2 {
		t.Errorf("Nonce = %d, want 2", resp.Nonce)
	}
}

func TestReconnectClientGivesUpEventually(t *testing.T) {
	// No server at all: the call must fail after bounded retries, not hang.
	c := NewReconnectClient("127.0.0.1:1", 100*time.Millisecond, 2)
	defer c.Close()
	start := time.Now()
	if err := c.Call(KindPing, Ping{}, nil); err == nil {
		t.Error("call with no server succeeded")
	}
	if time.Since(start) > 3*time.Second {
		t.Error("retries took too long")
	}
}

func TestReconnectClientDoesNotRetryRemoteErrors(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewMuxServer(lis, echoHandler)
	go srv.Serve()
	defer srv.Close()

	c := NewReconnectClient(srv.Addr(), time.Second, 3)
	defer c.Close()
	err = c.Call("boom", Ping{}, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError (no retries)", err)
	}
}

// flakyListener accepts TCP connections but slams the door on the first
// refusals of them, then hands the rest to a real server — the shape of an
// agent that is restarting while the controller retries — and counts the ones
// it handed over.
type flakyListener struct {
	net.Listener
	refusals int
	accepted atomic.Int64
}

func (fl *flakyListener) Accept() (net.Conn, error) {
	for {
		conn, err := fl.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if fl.refusals > 0 {
			fl.refusals--
			conn.Close()
			continue
		}
		fl.accepted.Add(1)
		return conn, nil
	}
}

func TestReconnectClientBacksOffThroughRefusals(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: lis, refusals: 2}
	srv := NewMuxServer(fl, echoHandler)
	go srv.Serve()
	defer srv.Close()

	c := NewReconnectClient(lis.Addr().String(), time.Second, 4)
	c.backoff = 10 * time.Millisecond
	defer c.Close()

	start := time.Now()
	var resp Ping
	if err := c.CallContext(context.Background(), KindPing, Ping{Nonce: 7}, &resp); err != nil {
		t.Fatalf("call through refusals: %v", err)
	}
	if resp.Nonce != 7 {
		t.Errorf("Nonce = %d, want 7", resp.Nonce)
	}
	// Two refused connections force at least two backoff sleeps; with equal
	// jitter the windows are [5,10]ms and [10,20]ms, so at least 15ms total.
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("call returned after %v; expected at least 15ms of backoff", elapsed)
	}
}

func TestReconnectClientCallContextCanceledMidRetry(t *testing.T) {
	// No server at all, large retry budget with long backoff: only
	// cancellation can end the loop quickly.
	c := NewReconnectClient("127.0.0.1:1", 100*time.Millisecond, 10)
	c.backoff = 10 * time.Second
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := c.CallContext(ctx, KindPing, Ping{}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("cancellation took %v; the retry loop must abort mid-backoff", elapsed)
	}
}

func TestReconnectClientCallContextAlreadyCanceled(t *testing.T) {
	c := NewReconnectClient("127.0.0.1:1", 100*time.Millisecond, 3)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.CallContext(ctx, KindPing, Ping{}, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled without any dial attempt", err)
	}
}

// TestReconnectClientCancelsInFlightCall: a context canceled while the agent
// sits on the request ends the call at once with the context's error, and the
// connection — healthy, its late reply dropped by id — carries the next call.
func TestReconnectClientCancelsInFlightCall(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: lis}
	entered, release := make(chan struct{}, 1), make(chan struct{})
	srv := NewMuxServer(fl, func(dst []byte, target int, kind string, body []byte) ([]byte, error) {
		var p Ping
		if err := Unmarshal(body, &p); err == nil && p.Nonce == 1 {
			select {
			case entered <- struct{}{}:
			default: // a replay, which the assertions below catch
			}
			<-release
		}
		return echoHandler(dst, target, kind, body)
	})
	go srv.Serve()
	defer srv.Close()
	defer close(release)

	c := NewReconnectClient(srv.Addr(), 5*time.Second, 3)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered // the agent has the request: the call is in flight
		cancel()
	}()
	start := time.Now()
	err = c.CallContext(ctx, KindPing, Ping{Nonce: 1}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation took %v; the in-flight call must not wait out the 5s timeout", elapsed)
	}
	var resp Ping
	if err := c.Call(KindPing, Ping{Nonce: 2}, &resp); err != nil || resp.Nonce != 2 {
		t.Fatalf("call after the canceled one: nonce %d, err %v", resp.Nonce, err)
	}
	if n := fl.accepted.Load(); n != 1 {
		t.Errorf("server accepted %d connections, want 1: a canceled call must keep its connection", n)
	}
}

// TestReconnectClientDoesNotRetryEncodeError: a request with no wire layout
// was never written, so there is nothing to redial for and nothing to replay.
func TestReconnectClientDoesNotRetryEncodeError(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: lis}
	srv := NewMuxServer(fl, echoHandler)
	go srv.Serve()
	defer srv.Close()

	c := NewReconnectClient(srv.Addr(), time.Second, 3)
	c.backoff = time.Second // a retry would show as a sleep
	defer c.Close()
	start := time.Now()
	if err := c.Call(KindPing, struct{}{}, nil); !errors.Is(err, ErrUnknownMessage) {
		t.Fatalf("err = %v, want ErrUnknownMessage", err)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("unencodable request took %v; it was retried", elapsed)
	}
	var resp Ping
	if err := c.Call(KindPing, Ping{Nonce: 3}, &resp); err != nil || resp.Nonce != 3 {
		t.Fatalf("call after the encode error: nonce %d, err %v", resp.Nonce, err)
	}
	if n := fl.accepted.Load(); n != 1 {
		t.Errorf("server accepted %d connections, want 1: an encode error must keep its connection", n)
	}
}

// TestReconnectClientDoesNotRetryOversizedRequest: a request over the frame
// cap is refused before any byte is written, so the client neither redials
// nor backs off, and the healthy connection carries the next call.
func TestReconnectClientDoesNotRetryOversizedRequest(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: lis}
	srv := NewMuxServer(fl, echoHandler)
	go srv.Serve()
	defer srv.Close()

	c := NewReconnectClient(srv.Addr(), time.Second, 3)
	// A retry would show as a sleep of at least the backoff. Encoding the
	// oversized body alone takes ~0.4 s under -race, so the bound sits well
	// clear of that and well below the backoff.
	c.backoff = 3 * time.Second
	defer c.Close()
	start := time.Now()
	if err := c.Call(KindPing, make([]byte, maxFrame+1), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	if elapsed := time.Since(start); elapsed > 1500*time.Millisecond {
		t.Errorf("oversized request took %v; it was retried", elapsed)
	}
	var resp Ping
	if err := c.Call(KindPing, Ping{Nonce: 2}, &resp); err != nil || resp.Nonce != 2 {
		t.Fatalf("call after the oversized one: nonce %d, err %v", resp.Nonce, err)
	}
	if n := fl.accepted.Load(); n != 1 {
		t.Errorf("server accepted %d connections, want 1: an oversized request must keep its connection", n)
	}
}

func TestRetryDelayCappedWithJitter(t *testing.T) {
	c := NewReconnectClient("127.0.0.1:1", time.Second, 3)
	// Equal jitter draws each delay from [d/2, d], where d is the un-jittered
	// capped exponential value; the cap is never exceeded.
	for attempt, want := range map[int]time.Duration{1: baseBackoff, 2: 2 * baseBackoff, 100: maxBackoff} {
		for trial := 0; trial < 32; trial++ {
			if d := c.retryDelay(attempt); d < want/2 || d > want {
				t.Errorf("retryDelay(%d) = %v, want within [%v, %v]", attempt, d, want/2, want)
			}
		}
	}
}

func TestRetryDelayJitterDeterministic(t *testing.T) {
	// Same seed, same sequence: tests can pin the exact delays.
	sample := func(seed int64) []time.Duration {
		c := NewReconnectClient("127.0.0.1:1", time.Second, 3)
		c.SetJitterSeed(seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = c.retryDelay(i + 1)
		}
		return out
	}
	a, b := sample(42), sample(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d: %v != %v with identical seeds", i, a[i], b[i])
		}
	}
	// Different addresses default to different streams (anti thundering-herd):
	// at least one of the first 8 delays should differ.
	c1 := NewReconnectClient("127.0.0.1:1", time.Second, 3)
	c2 := NewReconnectClient("127.0.0.1:2", time.Second, 3)
	same := true
	for i := 1; i <= 8; i++ {
		if c1.retryDelay(i) != c2.retryDelay(i) {
			same = false
			break
		}
	}
	if same {
		t.Error("two addresses drew identical jitter sequences")
	}
}

func TestDropConnForcesRedial(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewMuxServer(lis, echoHandler)
	go srv.Serve()
	defer srv.Close()

	c := NewReconnectClient(srv.Addr(), time.Second, 3)
	defer c.Close()
	var resp Ping
	if err := c.Call(KindPing, Ping{Nonce: 1}, &resp); err != nil {
		t.Fatal(err)
	}
	c.DropConn()
	if c.client != nil {
		t.Fatal("DropConn left a live connection")
	}
	if err := c.Call(KindPing, Ping{Nonce: 2}, &resp); err != nil {
		t.Fatalf("call after DropConn: %v", err)
	}
	if resp.Nonce != 2 {
		t.Errorf("Nonce = %d, want 2", resp.Nonce)
	}
}

func TestReconnectClientClosed(t *testing.T) {
	c := NewReconnectClient("127.0.0.1:1", 100*time.Millisecond, 1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(KindPing, Ping{}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}
