package transport

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// echoHandler answers pings, fails "boom" and refuses every other kind.
func echoHandler(dst []byte, _ int, kind string, body []byte) ([]byte, error) {
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
}

func TestCallRemoteError(t *testing.T) {
	_, cli := startMux(t, echoHandler)
	c := cli.Agent(0)
	err := c.Call("boom", Ping{}, nil)
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
	_, cli := startMux(t, echoHandler)
	if err := cli.Agent(0).Call("nope", Ping{}, nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestMultipleClients(t *testing.T) {
	srv, _ := startMux(t, echoHandler)
	for n := 0; n < 5; n++ {
		c, err := DialMux(srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		var resp Ping
		if err := c.Agent(0).Call(KindPing, Ping{Nonce: uint64(n)}, &resp); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startMux(t, echoHandler)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := DialMux("127.0.0.1:1", 200*time.Millisecond); err == nil {
		t.Error("dial to closed port succeeded")
	}
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
// append contract through a MuxServer and through Loopback (halfThenFail is in
// mux_test.go): a handler that fails after appending is answered with
// its error and nothing it wrote; a reply over the frame cap is an error
// reply; and either way the next call on the same connection is served, so
// the stream never carried a torn frame.
func TestHandlerErrorAfterAppendLeavesNoBytes(t *testing.T) {
	handler := func(dst []byte, kind string, body []byte) ([]byte, error) { return halfThenFail(dst, 0, kind, body) }
	srv, _ := startMux(t, halfThenFail)
	// The race detector takes seconds to map a frame's worth of memory.
	cli, err := DialMux(srv.Addr(), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	type conn interface {
		Call(kind string, reqBody, respBody any) error
	}
	for name, c := range map[string]conn{"server": cli.Agent(0), "loopback": NewLoopback(handler)} {
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
