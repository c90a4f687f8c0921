package transport_test

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"grefar/internal/transport"
)

// hostileFrames are the v1-format seeds of FuzzServerFrame, shared with the
// deterministic TestHostileFramesKillOnlyTheirSession. reply is a piece of
// what the server answers, empty where it hangs up instead. The batch seeds
// reach the server's own item parser, which no handler stands in front of: a
// batch whose second item fails comes back whole with that item's error
// inside, and a nested length or an item count the body cannot hold is
// refused with an error frame.
var hostileFrames = []struct {
	name  string
	bytes string
	reply string
}{
	{"valid ping", "\x0c\x00\x00\x00\x01\x01\x00\x04ping\x00\x05\x2a\x00", "\x05\x2a\x00"},
	{"flipped byte", "\x0c\x00\x00\x00\x01\x01\x00\x05ping\x00\x05\x2a\x00", ""},
	{"length over cap", "\x01\x00\x00\x04\x01\x01\x00\x04ping\x00\x05\x2a\x00", ""},
	{"batch of 2^31 items", "\x11\x00\x00\x00\x01\x02\x01\x07__batch\x00\x80\x80\x80\x80\x08", "batch decode"},
	{"future version", "\x0c\x00\x00\x00\x02\x01\x00\x04ping\x00\x05\x2a\x00", ""},
	{"batch whose second item fails", "\x27\x00\x00\x00\x01\x02\x01\x07__batch\x00\x02\x00\x04ping\x03\x00\x00\x00\x05\x2a\x00\x02\x04ping\x03\x00\x00\x00\x05\x2b\x00", "odd nonce"},
	{"batch item longer than the body", "\x1a\x00\x00\x00\x01\x02\x01\x07__batch\x00\x01\x00\x04ping\xc8\x00\x00\x00\x05\x2a\x00", "batch decode"},
	{"batch of more items than the body holds", "\x1a\x00\x00\x00\x01\x02\x01\x07__batch\x00\x03\x00\x04ping\x03\x00\x00\x00\x05\x2a\x00", "batch decode"},
}

// oddNonceFails is the handler both tests serve. It appends its reply in
// place and, for odd nonces, fails after it has: whatever frame lands on it,
// the half-written reply must not reach the stream.
func oddNonceFails(dst []byte, _ int, kind string, body []byte) ([]byte, error) {
	var p transport.Ping
	if err := transport.Unmarshal(body, &p); err != nil {
		return nil, err
	}
	dst, err := transport.Append(dst, &p)
	if err == nil && p.Nonce%2 == 1 {
		err = errors.New("odd nonce")
	}
	return dst, err
}

// serveOddNonceFails starts a MuxServer on a fresh loopback listener.
func serveOddNonceFails(t *testing.T) *transport.MuxServer {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewMuxServer(lis, oddNonceFails)
	go srv.Serve()
	return srv
}

// pingCleanSession dials srv afresh and expects a ping answered: the accept
// loop outlived whatever the sessions before this one were sent.
func pingCleanSession(t *testing.T, srv *transport.MuxServer) {
	t.Helper()
	cli, err := transport.DialMux(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatalf("dial after poisoned session: %v", err)
	}
	defer cli.Close()
	var pong transport.Ping
	if err := cli.Agent(0).Call(transport.KindPing, transport.Ping{Nonce: 42}, &pong); err != nil || pong.Nonce != 42 {
		t.Fatalf("ping after poisoned session: nonce %d, err %v", pong.Nonce, err)
	}
}

// TestHostileFramesKillOnlyTheirSession sends each hostile frame to a
// MuxServer: the session either gets an answer (a reply or an error frame —
// the 2^31-item batch is refused from its first five bytes) or is hung up on,
// and in every case the next dial is served.
func TestHostileFramesKillOnlyTheirSession(t *testing.T) {
	srv := serveOddNonceFails(t)
	defer srv.Close()
	for _, frame := range hostileFrames {
		raw, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		raw.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := raw.Write([]byte(frame.bytes)); err != nil {
			t.Fatalf("%s: write: %v", frame.name, err)
		}
		answer := make([]byte, 512)
		n, err := raw.Read(answer)
		raw.Close()
		if got := string(answer[:n]); (n > 0) != (frame.reply != "") || !strings.Contains(got, frame.reply) {
			t.Errorf("%s: read %q (err %v), want an answer holding %q", frame.name, got, err, frame.reply)
		}
		pingCleanSession(t, srv)
	}
}

// TestFutureVersionReplyIsTyped plays a peer from the future to the client:
// the reply's version byte must surface as ErrWireVersion.
func TestFutureVersionReplyIsTyped(t *testing.T) {
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
		if _, err := conn.Read(make([]byte, 512)); err == nil {
			conn.Write([]byte("\x0c\x00\x00\x00\x02\x01\x00\x04ping\x00\x05\x2a\x00"))
			conn.Read(make([]byte, 1)) // hold the reply readable until the client hangs up
		}
	}()
	cli, err := transport.DialMux(lis.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Agent(0).Call(transport.KindPing, transport.Ping{}, nil); !errors.Is(err, transport.ErrWireVersion) {
		t.Errorf("err = %v, want ErrWireVersion", err)
	}
}

// FuzzServerFrame streams arbitrary bytes at a live MuxServer as if they were
// a frame stream. Whatever arrives — garbage, truncated frames, huge claimed
// lengths, a byte-flipped valid frame, or a batch frame for the server's own
// item parser — the server must neither panic nor wedge: the poisoned session
// dies alone and the accept loop keeps answering clean clients. This is the
// wire-level contract the chaos NetConn tests sample and the fuzzer explores
// exhaustively.
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
	// above the cap, a batch frame claiming 2^31 items, a version byte from
	// the future, and three more batch frames for the server's item parser.
	for _, frame := range hostileFrames {
		f.Add([]byte(frame.bytes))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip("oversized input adds wire time, not coverage")
		}
		srv := serveOddNonceFails(t)
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

		pingCleanSession(t, srv)
	})
}
