package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func echoServer(t *testing.T) (*Server, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis, func(dst []byte, kind string, body []byte) ([]byte, error) {
		switch kind {
		case KindPing:
			var p Ping
			if err := Unmarshal(body, &p); err != nil {
				return nil, err
			}
			return Append(dst, &p)
		case "boom":
			return nil, errors.New("kaboom")
		default:
			return nil, fmt.Errorf("unknown kind %q", kind)
		}
	})
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr()
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := echoServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var resp Ping
	if err := c.Call(KindPing, Ping{Nonce: 42}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Nonce != 42 {
		t.Errorf("Nonce = %d, want 42", resp.Nonce)
	}
}

func TestCallRemoteError(t *testing.T) {
	_, addr := echoServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("boom", Ping{}, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Kind != "boom" || !strings.Contains(re.Error(), "kaboom") {
		t.Errorf("unexpected error: %v", re)
	}
	// The connection survives a remote error.
	var resp Ping
	if err := c.Call(KindPing, Ping{Nonce: 7}, &resp); err != nil || resp.Nonce != 7 {
		t.Errorf("call after error failed: %v", err)
	}
}

func TestCallUnknownKind(t *testing.T) {
	_, addr := echoServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("nope", Ping{}, nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestConcurrentCallsSerialized(t *testing.T) {
	_, addr := echoServer(t)
	c, err := Dial(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for n := 0; n < 20; n++ {
		wg.Add(1)
		go func(n uint64) {
			defer wg.Done()
			var resp Ping
			if err := c.Call(KindPing, Ping{Nonce: n}, &resp); err != nil {
				t.Errorf("call %d: %v", n, err)
				return
			}
			if resp.Nonce != n {
				t.Errorf("call %d got nonce %d", n, resp.Nonce)
			}
		}(uint64(n))
	}
	wg.Wait()
}

func TestMultipleClients(t *testing.T) {
	_, addr := echoServer(t)
	for n := 0; n < 5; n++ {
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var resp Ping
		if err := c.Call(KindPing, Ping{Nonce: uint64(n)}, &resp); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

func TestClientClosed(t *testing.T) {
	_, addr := echoServer(t)
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Call(KindPing, Ping{}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := echoServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestCallTimeout(t *testing.T) {
	// A server that never answers must trip the client deadline.
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
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	c, err := Dial(lis.Addr().String(), 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := c.Call(KindPing, Ping{}, nil); err == nil {
		t.Error("call to mute server succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout took far too long")
	}
}

// TestClientClosesItselfOnDesync is the regression test for the off-by-one
// stream: after a read deadline the plain Client used to stay open, so the
// late reply was read as the answer to the next call and every later call
// failed its ID check forever. Any send/receive/ID failure must close the
// client — later calls fail fast with ErrClosed — and a fresh Dial must work.
func TestClientClosesItselfOnDesync(t *testing.T) {
	t.Run("late reply", func(t *testing.T) {
		release := make(chan struct{})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(lis, func(dst []byte, kind string, body []byte) ([]byte, error) {
			var p Ping
			if err := Unmarshal(body, &p); err != nil {
				return nil, err
			}
			if p.Nonce == 1 {
				<-release // answer this one after the client has given up
			}
			return Append(dst, &p)
		})
		go srv.Serve()
		defer srv.Close()

		c, err := Dial(srv.Addr(), 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var resp Ping
		if err := c.Call(KindPing, Ping{Nonce: 1}, &resp); err == nil {
			t.Fatal("call answered after the deadline succeeded")
		}
		close(release)
		start := time.Now()
		if err := c.Call(KindPing, Ping{Nonce: 2}, &resp); !errors.Is(err, ErrClosed) {
			t.Fatalf("call on a desynchronised client returned %v, want ErrClosed", err)
		}
		if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
			t.Errorf("closed client took %v to refuse a call", elapsed)
		}
		fresh, err := Dial(srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		if err := fresh.Call(KindPing, Ping{Nonce: 3}, &resp); err != nil || resp.Nonce != 3 {
			t.Fatalf("fresh client: nonce %d, err %v", resp.Nonce, err)
		}
	})

	t.Run("wrong id", func(t *testing.T) {
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
			reply, _ := appendFrame(nil, 99, 0, KindPing, "", Ping{})
			buf := make([]byte, 1024)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
				conn.Write(reply)
			}
		}()
		c, err := Dial(lis.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Call(KindPing, Ping{}, nil); err == nil || errors.Is(err, ErrClosed) {
			t.Fatalf("mismatched response id returned %v, want an id error", err)
		}
		if err := c.Call(KindPing, Ping{}, nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("call after an id mismatch returned %v, want ErrClosed", err)
		}
	})
}

func TestMarshalUnmarshal(t *testing.T) {
	rep := StateReport{Slot: 3, DataCenter: 1, Avail: []float64{5}, Price: 0.42, QueueLens: []float64{1, 2}}
	data, err := Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var got StateReport
	if err := Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Slot != 3 || got.Price != 0.42 || got.QueueLens[1] != 2 {
		t.Errorf("round trip mangled: %+v", got)
	}
	if err := Unmarshal([]byte("garbage"), &got); err == nil {
		t.Error("garbage decoded")
	}
}

// TestHandlerErrorAfterAppendLeavesNoBytes and the oversized case run the
// append contract through the plain Server and through Loopback (halfThenFail
// is in mux_test.go): a handler that fails after appending is answered with
// its error and nothing it wrote; a reply over the frame cap is an error
// reply; and either way the next call on the same connection is served, so
// the stream never carried a torn frame.
func TestHandlerErrorAfterAppendLeavesNoBytes(t *testing.T) {
	handler := func(dst []byte, kind string, body []byte) ([]byte, error) { return halfThenFail(dst, 0, kind, body) }
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(lis, handler)
	go srv.Serve()
	defer srv.Close()
	// The race detector takes seconds to map a frame's worth of memory.
	cli, err := Dial(srv.Addr(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	type conn interface {
		Call(kind string, reqBody, respBody any) error
	}
	for name, c := range map[string]conn{"server": cli, "loopback": NewLoopback(handler)} {
		var re *RemoteError
		var pong Ping
		err := c.Call(KindPing, Ping{Nonce: 5}, &pong)
		if !errors.As(err, &re) || re.Message != "target 0 rejects nonce 5" || pong != (Ping{}) {
			t.Errorf("%s: failing handler: err = %v, decoded %+v", name, err, pong)
		}
		err = c.Call("huge", Ping{}, &pong)
		if !errors.As(err, &re) || !strings.Contains(re.Message, ErrFrameTooLarge.Error()) {
			t.Errorf("%s: oversized reply: err = %v, want a remote ErrFrameTooLarge", name, err)
		}
		if err := c.Call(KindPing, Ping{Nonce: 8}, &pong); err != nil || pong.Nonce != 8 {
			t.Errorf("%s: call after the failures: nonce %d, err %v", name, pong.Nonce, err)
		}
	}
}
