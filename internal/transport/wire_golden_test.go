package transport

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire_v1_streams.txt from this build's frames")

// wireMessages is one instance of each of the seven control-loop messages.
// Call "m<i>" sends wireMessages[i] as its request and is answered with
// wireMessages[i], so every type crosses the wire in both directions.
var wireMessages = []any{
	&StateRequest{Slot: 7},
	&StateReport{Slot: 7, DataCenter: 2, Avail: []float64{3, 0.5}, Price: 0.042, QueueLens: []float64{1, 2, 3}},
	&Allocate{Slot: 7, Route: []int{1, 0, 2}, Process: []float64{0.5, 0, 1.5}, Busy: []float64{2, 1}},
	&AllocateAck{Slot: 7, Processed: []float64{1, 0, 2}, DelaySum: []float64{3, 0, 4.5}, Energy: 1.25, Work: 6},
	&Ping{Nonce: 42, Slot: 7},
	&RestoreRequest{Slot: 7, Snapshot: []byte{1, 2, 3, 4}},
	&RestoreAck{Slot: 7, QueueLens: []float64{4, 5, 6}},
}

// wireGoldenHandler answers "m<i>" with wireMessages[i] and fails "boom" —
// after appending to the reply, so the error path has something to discard.
func wireGoldenHandler(dst []byte, _ int, kind string, body []byte) ([]byte, error) {
	if kind == "boom" {
		return append(dst, "half a reply"...), errors.New("kaboom")
	}
	var i int
	if _, err := fmt.Sscanf(kind, "m%d", &i); err != nil || i < 0 || i >= len(wireMessages) {
		return dst, fmt.Errorf("unknown kind %q", kind)
	}
	return Append(dst, wireMessages[i])
}

// recordingProxy forwards one connection to upstream and keeps every byte
// that crossed it. streams waits for both directions to drain; call it after
// closing the client.
func recordingProxy(t *testing.T, upstream string) (addr string, streams func() (requests, replies []byte)) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	var wg sync.WaitGroup
	var up, down bytes.Buffer
	wg.Add(1)
	go func() {
		defer wg.Done()
		client, err := lis.Accept()
		if err != nil {
			return
		}
		defer client.Close()
		server, err := net.Dial("tcp", upstream)
		if err != nil {
			t.Errorf("proxy dial: %v", err)
			return
		}
		defer server.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			io.Copy(io.MultiWriter(client, &down), server)
		}()
		io.Copy(io.MultiWriter(server, &up), client)
		server.Close() // the client hung up: end the other direction too
	}()
	return lis.Addr().String(), func() ([]byte, []byte) {
		wg.Wait()
		return up.Bytes(), down.Bytes()
	}
}

// TestWireStreamsMatchGolden drives every message type and a handler error
// through a single-agent connection (target 0) and a multiplexed one (target
// 3, plus a batch frame) behind a recording proxy, and compares both byte
// streams — request frames and reply frames — with
// testdata/wire_v1_streams.txt. The plain.* streams in that file were recorded
// from the serial Server/Client pair this package used to carry;
// DialMux(addr).Agent(0) against a MuxServer must reproduce them byte for
// byte, which is the proof that an agent or controller built before the pair
// was deleted still interoperates with one built after. Regenerate with
// -update only for a deliberate wire-format change.
func TestWireStreamsMatchGolden(t *testing.T) {
	got := map[string][]byte{}
	checkReply := func(i int, resp any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("m%d: %v", i, err)
		}
		if !reflect.DeepEqual(resp, wireMessages[i]) {
			t.Errorf("m%d decoded to %+v, want %+v", i, resp, wireMessages[i])
		}
	}
	fresh := func(i int) any { return reflect.New(reflect.TypeOf(wireMessages[i]).Elem()).Interface() }

	mux, _ := startMux(t, wireGoldenHandler)
	addr, streams := recordingProxy(t, mux.Addr())
	cli, err := DialMux(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, msg := range wireMessages {
		resp := fresh(i)
		checkReply(i, resp, cli.Agent(0).Call(fmt.Sprintf("m%d", i), msg, resp))
	}
	var re *RemoteError
	if err := cli.Agent(0).Call("boom", &Ping{}, nil); !errors.As(err, &re) || re.Message != "kaboom" {
		t.Errorf("plain boom: err = %v, want remote kaboom", err)
	}
	cli.Close()
	got["plain.requests"], got["plain.replies"] = streams()

	addr, streams = recordingProxy(t, mux.Addr())
	mcli, err := DialMux(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, msg := range wireMessages {
		resp := fresh(i)
		checkReply(i, resp, mcli.Agent(3).Call(fmt.Sprintf("m%d", i), msg, resp))
	}
	if err := mcli.Agent(3).Call("boom", &Ping{}, nil); !errors.As(err, &re) || re.Message != "kaboom" {
		t.Errorf("mux boom: err = %v, want remote kaboom", err)
	}
	// One batch: the failing item in the middle, every message type around it.
	var calls []BatchCall
	for i, msg := range wireMessages {
		if i == 3 {
			calls = append(calls, BatchCall{Target: 100, Kind: "boom", Req: &Ping{}})
		}
		calls = append(calls, BatchCall{Target: i, Kind: fmt.Sprintf("m%d", i), Req: msg, Resp: fresh(i)})
	}
	if err := mcli.CallBatch(context.Background(), calls); err != nil {
		t.Fatal(err)
	}
	for _, call := range calls {
		if call.Kind == "boom" {
			if !errors.As(call.Err, &re) || re.Message != "kaboom" {
				t.Errorf("batch boom: err = %v, want remote kaboom", call.Err)
			}
			continue
		}
		checkReply(call.Target, call.Resp, call.Err)
	}
	mcli.Close()
	got["mux.requests"], got["mux.replies"] = streams()

	const path = "testdata/wire_v1_streams.txt"
	names := []string{"plain.requests", "plain.replies", "mux.requests", "mux.replies"}
	if *updateWire {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, hex.EncodeToString(got[name]))
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		name, stream, _ := strings.Cut(line, " ")
		want[name] = stream
	}
	for _, name := range names {
		if hex.EncodeToString(got[name]) != want[name] {
			t.Errorf("%s: wire bytes changed\n got %x\nwant %s", name, got[name], want[name])
		}
	}
}
