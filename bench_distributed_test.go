package grefar_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"grefar"
	"grefar/internal/agent"
	"grefar/internal/controller"
	"grefar/internal/transport"
)

// startDistributed builds the 3-site reference system over real loopback TCP
// as the daemons do — one listener and agent.Serve per agent, one
// ReconnectClient per address, as grefar-serve -agents dials them — and
// returns the controller with a teardown that closes every connection,
// server, and listener. Both the benchmark and its companion leak test run
// through this helper so the lifecycle they exercise is identical.
func startDistributed(tb testing.TB) (*controller.Controller, grefar.SimInputs, func()) {
	tb.Helper()
	inputs, err := grefar.ReferenceInputs(2012, 4096)
	if err != nil {
		tb.Fatal(err)
	}
	c := inputs.Cluster
	conns := make([]controller.AgentConn, c.N())
	var cleanups []func()
	teardown := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	for i := 0; i < c.N(); i++ {
		a, err := agent.New(agent.Config{
			Cluster:      c,
			DataCenter:   i,
			Price:        inputs.Prices[i],
			Availability: inputs.Availability,
		})
		if err != nil {
			teardown()
			tb.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			teardown()
			tb.Fatal(err)
		}
		srv := a.Serve(lis)
		cleanups = append(cleanups, func() { srv.Close() })
		cli := transport.NewReconnectClient(srv.Addr(), 5*time.Second, 0)
		cleanups = append(cleanups, func() { cli.Close() })
		conns[i] = cli
	}
	g, err := grefar.New(c, grefar.Config{V: 7.5, Beta: 100})
	if err != nil {
		teardown()
		tb.Fatal(err)
	}
	ct, err := controller.New(c, g, conns)
	if err != nil {
		teardown()
		tb.Fatal(err)
	}
	return ct, inputs, teardown
}

// BenchmarkDistributedSlot measures one full control-loop round over real
// loopback TCP: state gathering from three agents, the GreFar decision, and
// allocation dispatch — the number that bounds how fast slots can tick in a
// live deployment. Teardown runs outside the timer so repeated invocations
// (go test -count=N) never accumulate listeners or goroutines.
func BenchmarkDistributedSlot(b *testing.B) {
	ct, inputs, teardown := startDistributed(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, _, _, err := ct.RunSlot(n%4096, inputs.Workload.Arrivals(n%4096)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	teardown()
}

// TestDistributedBenchHarnessLeaksNoGoroutines pins the benchmark harness's
// hygiene: a full start/run/teardown cycle must return the process to its
// prior goroutine count, so a -count=N benchmark run cannot accumulate
// listeners, server loops, or client readers across iterations.
func TestDistributedBenchHarnessLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ct, inputs, teardown := startDistributed(t)
	for n := 0; n < 3; n++ {
		if _, _, _, err := ct.RunSlot(n, inputs.Workload.Arrivals(n)); err != nil {
			teardown()
			t.Fatal(err)
		}
	}
	teardown()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines: %d before harness, %d after teardown", before, got)
	}
}

// codecSink keeps the compiler from discarding the measured calls.
var codecSink []byte

// BenchmarkCodec measures the wire codec alone on the two messages that make
// up a slot's traffic — a state report and an allocation at J=3, the hollow
// fleet's shape: encode is one transport.Marshal, decode one
// transport.Unmarshal into a fresh destination. BENCH_distributed.json tracks
// the four cells next to the slot ticks they are a part of.
func BenchmarkCodec(b *testing.B) {
	report := transport.StateReport{Slot: 7, DataCenter: 311, Avail: []float64{118}, Price: 0.0417, QueueLens: []float64{12, 0, 31}}
	alloc := transport.Allocate{Slot: 7, Route: []int{3, 0, 5}, Process: []float64{2, 0, 4.5}, Busy: []float64{61.25}}
	for _, msg := range []struct {
		name  string
		value any
		fresh func() any
	}{
		{"state", &report, func() any { return new(transport.StateReport) }},
		{"allocate", &alloc, func() any { return new(transport.Allocate) }},
	} {
		b.Run(msg.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if codecSink, err = transport.Marshal(msg.value); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(msg.name+"/decode", func(b *testing.B) {
			body, err := transport.Marshal(msg.value)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := transport.Unmarshal(body, msg.fresh()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
