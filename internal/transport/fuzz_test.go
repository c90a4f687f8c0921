package transport_test

import (
	"errors"
	"net"
	"testing"
	"time"

	"grefar/internal/transport"
)

// FuzzServerFrame streams arbitrary bytes at a live transport server as if
// they were a frame stream. Whatever arrives — garbage, truncated frames,
// huge claimed lengths, or a byte-flipped valid frame — the server must
// neither panic nor wedge: the poisoned session dies alone and the accept
// loop keeps answering clean clients. This is the wire-level contract the
// chaos NetConn tests sample and the fuzzer explores exhaustively.
// hostileFrames are the v1-format seeds of FuzzServerFrame, shared with the
// deterministic TestHostileFramesKillOnlyTheirSession. answered marks the
// ones a server replies to instead of hanging up on.
var hostileFrames = []struct {
	name     string
	bytes    string
	answered bool
}{
	{"valid ping", "\x0c\x00\x00\x00\x01\x01\x00\x04ping\x00\x05\x2a\x00", true},
	{"flipped byte", "\x0c\x00\x00\x00\x01\x01\x00\x05ping\x00\x05\x2a\x00", false},
	{"length over cap", "\x01\x00\x00\x04\x01\x01\x00\x04ping\x00\x05\x2a\x00", false},
	{"batch of 2^31 items", "\x11\x00\x00\x00\x01\x02\x01\x07__batch\x00\x80\x80\x80\x80\x08", true},
	{"future version", "\x0c\x00\x00\x00\x02\x01\x00\x04ping\x00\x05\x2a\x00", false},
}

// TestHostileFramesKillOnlyTheirSession sends each hostile frame to a plain
// Server and to a MuxServer: the session either gets an answer (a reply or
// an error frame — the 2^31-item batch is refused from its first five bytes)
// or is hung up on, and in every case the next dial is served.
func TestHostileFramesKillOnlyTheirSession(t *testing.T) {
	echo := func(dst []byte, kind string, body []byte) ([]byte, error) {
		var p transport.Ping
		if err := transport.Unmarshal(body, &p); err != nil {
			return nil, err
		}
		return transport.Append(dst, &p)
	}
	listen := func() net.Listener {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return lis
	}
	plain := transport.NewServer(listen(), echo)
	go plain.Serve()
	defer plain.Close()
	mux := transport.NewMuxServer(listen(), func(dst []byte, _ int, kind string, body []byte) ([]byte, error) { return echo(dst, kind, body) })
	go mux.Serve()
	defer mux.Close()

	for _, addr := range []string{plain.Addr(), mux.Addr()} {
		for _, frame := range hostileFrames {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			raw.SetDeadline(time.Now().Add(2 * time.Second))
			if _, err := raw.Write([]byte(frame.bytes)); err != nil {
				t.Fatalf("%s: write: %v", frame.name, err)
			}
			n, err := raw.Read(make([]byte, 512))
			raw.Close()
			if answered := n > 0; answered != frame.answered {
				t.Errorf("%s at %s: read %d bytes (err %v), answered = %v, want %v", frame.name, addr, n, err, answered, frame.answered)
			}
		}
	}

	cli, err := transport.Dial(plain.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	mcli, err := transport.DialMux(mux.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mcli.Close()
	var pong transport.Ping
	if err := cli.Call(transport.KindPing, transport.Ping{Nonce: 7}, &pong); err != nil || pong.Nonce != 7 {
		t.Errorf("plain server after hostile sessions: nonce %d, err %v", pong.Nonce, err)
	}
	if err := mcli.Agent(0).Call(transport.KindPing, transport.Ping{Nonce: 8}, &pong); err != nil || pong.Nonce != 8 {
		t.Errorf("mux server after hostile sessions: nonce %d, err %v", pong.Nonce, err)
	}
}

// TestFutureVersionReplyIsTyped plays a peer from the future to both
// clients: the reply's version byte must surface as ErrWireVersion.
func TestFutureVersionReplyIsTyped(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := conn.Read(make([]byte, 512)); err == nil {
					conn.Write([]byte("\x0c\x00\x00\x00\x02\x01\x00\x04ping\x00\x05\x2a\x00"))
					conn.Read(make([]byte, 1)) // hold the reply readable until the client hangs up
				}
			}()
		}
	}()
	cli, err := transport.Dial(lis.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Call(transport.KindPing, transport.Ping{}, nil); !errors.Is(err, transport.ErrWireVersion) {
		t.Errorf("plain client: err = %v, want ErrWireVersion", err)
	}
	mcli, err := transport.DialMux(lis.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mcli.Close()
	if err := mcli.Agent(0).Call(transport.KindPing, transport.Ping{}, nil); !errors.Is(err, transport.ErrWireVersion) {
		t.Errorf("mux client: err = %v, want ErrWireVersion", err)
	}
}

func FuzzServerFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	// A plausible gob stream prefix with flipped bytes (from a real frame of
	// the retired gob wire; to the v1 reader it is a 2 GB length claim).
	f.Add([]byte("\x13\xff\x81\x03\x01\x01\x05frame\x01\xff\x82"))
	// A length prefix claiming an enormous message.
	f.Add([]byte("\xf8\xff\xff\xff\xff\xff\xff\xff\xff"))
	// Wire format v1: a valid ping frame, the same frame with one byte
	// flipped (the kind length, so the header overruns), a length prefix one
	// above the cap, a batch frame claiming 2^31 items, and a version byte
	// from the future.
	for _, frame := range hostileFrames {
		f.Add([]byte(frame.bytes))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input adds wire time, not coverage")
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		// The handler appends its reply in place and, for odd nonces, fails
		// after it has: whatever frame the fuzzer lands on a handler, the
		// half-written reply must not reach the stream.
		srv := transport.NewServer(lis, func(dst []byte, kind string, body []byte) ([]byte, error) {
			var p transport.Ping
			if err := transport.Unmarshal(body, &p); err != nil {
				return nil, err
			}
			dst, err := transport.Append(dst, &p)
			if err == nil && p.Nonce%2 == 1 {
				err = errors.New("odd nonce")
			}
			return dst, err
		})
		go srv.Serve()
		defer srv.Close()

		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// A short deadline keeps throughput up: when the input is a valid
		// frame prefix the server just waits for more bytes, and the
		// interesting assertion is the clean dial below, not this read.
		raw.SetDeadline(time.Now().Add(100 * time.Millisecond))
		// Write errors are expected: the server may reset the connection as
		// soon as decoding fails.
		_, _ = raw.Write(data)
		buf := make([]byte, 512)
		_, _ = raw.Read(buf)
		raw.Close()

		// The accept loop must still serve a clean session.
		cli, err := transport.Dial(srv.Addr(), 2*time.Second)
		if err != nil {
			t.Fatalf("dial after poisoned session: %v", err)
		}
		defer cli.Close()
		var pong transport.Ping
		if err := cli.Call(transport.KindPing, transport.Ping{Nonce: 42}, &pong); err != nil {
			t.Fatalf("ping after poisoned session: %v", err)
		}
		if pong.Nonce != 42 {
			t.Fatalf("Nonce = %d, want 42", pong.Nonce)
		}
	})
}
