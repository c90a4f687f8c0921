package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"grefar/internal/model"
	"grefar/internal/transport"
)

func TestServeAndPing(t *testing.T) {
	a, err := serve([]string{"-dc", "1", "-listen", "127.0.0.1:0", "-slots", "64"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Name != "dc2" {
		t.Errorf("name = %q, want dc2", a.Name)
	}
	mux, err := transport.DialMux(a.Server.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	cli := mux.Agent(0)
	var pong transport.Ping
	if err := cli.Call(transport.KindPing, transport.Ping{Nonce: 3}, &pong); err != nil {
		t.Fatal(err)
	}
	if pong.Nonce != 3 {
		t.Errorf("Nonce = %d", pong.Nonce)
	}
	// State requests answer with the right site.
	var rep transport.StateReport
	if err := cli.Call(transport.KindState, transport.StateRequest{Slot: 0}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.DataCenter != 1 {
		t.Errorf("DataCenter = %d, want 1", rep.DataCenter)
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := serve([]string{"-dc", "9"}); err == nil {
		t.Error("out-of-range dc accepted")
	}
	if _, err := serve([]string{"-listen", "999.999.999.999:1"}); err == nil {
		t.Error("bad listen address accepted")
	}
	if _, err := serve([]string{"-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

// TestAgentMetricsEndpoint executes one allocation against the agent and
// checks that its mux serves the resulting slot event and the health probe.
func TestAgentMetricsEndpoint(t *testing.T) {
	a, err := serve([]string{"-dc", "1", "-listen", "127.0.0.1:0", "-slots", "64"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	c := model.NewReferenceCluster()
	mux, err := transport.DialMux(a.Server.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	cli := mux.Agent(0)
	var ack transport.AllocateAck
	if err := cli.Call(transport.KindAllocate, transport.Allocate{
		Slot:    0,
		Route:   make([]int, c.J()),
		Process: make([]float64, c.J()),
		Busy:    make([]float64, c.K(1)),
	}, &ack); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(a.Metrics)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if want := `grefar_slots_total{origin="agent"} 1`; !strings.Contains(string(body), want) {
		t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
	}

	if resp, err := http.Get(srv.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}
	// pprof stays off the mux without -pprof.
	if resp, err := http.Get(srv.URL + "/debug/pprof/cmdline"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Error("/debug/pprof/ mounted without -pprof")
		}
	}
}
