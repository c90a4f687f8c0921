package main

import (
	"context"
	"fmt"
	"time"

	"grefar/internal/agent"
	"grefar/internal/transport"
)

// Probes replay real messages through one layer at a time, after the traced
// slots, while nothing else runs in the process.
const (
	probeMessages  = 64   // distinct messages of each kind
	probeCodecOps  = 4000 // encodes and decodes timed per kind
	probeCalls     = 400  // single mux calls
	probeBatchSize = 125  // items in one CallBatch, a 4-connection fleet's share of 500 agents
	probeBatches   = 20
	probeHandles   = 2000 // agent.Handle calls per kind
)

// probeFleet measures the codec, the mux round trip and the agent handler on
// messages taken from the fleet at slot t.
func probeFleet(m metricSet, fs *fleetStack, t int) error {
	if fs.lastAct == nil {
		return fmt.Errorf("no action to build allocate messages from")
	}
	n := probeMessages
	if n > fs.fleet.N() {
		n = fs.fleet.N()
	}
	cli, err := transport.DialMux(fs.fleet.Addr(), 5*time.Second)
	if err != nil {
		return err
	}
	defer cli.Close()

	// Real messages: each agent's state report, and the allocation the last
	// decision sent it, built the way the controller builds it.
	states := make([]transport.StateReport, n)
	allocs := make([]transport.Allocate, n)
	for i := 0; i < n; i++ {
		if err := cli.CallTarget(context.Background(), i, transport.KindState, transport.StateRequest{Slot: t}, &states[i]); err != nil {
			return err
		}
		allocs[i] = transport.Allocate{Slot: t, Route: fs.lastAct.Route[i], Process: fs.lastAct.Process[i], Busy: fs.lastAct.Busy[i]}
	}

	// Codec only.
	m0 := mallocs()
	encS, decS, bytesS, err := codecProbe(n, func(i int) any { return states[i] }, func() any { return new(transport.StateReport) })
	if err != nil {
		return err
	}
	encA, decA, bytesA, err := codecProbe(n, func(i int) any { return allocs[i] }, func() any { return new(transport.Allocate) })
	if err != nil {
		return err
	}
	m1 := mallocs()
	m.set("transport.encode_state_ns", encS)
	m.set("transport.decode_state_ns", decS)
	m.set("transport.state_bytes", bytesS)
	m.set("transport.encode_allocate_ns", encA)
	m.set("transport.decode_allocate_ns", decA)
	m.set("transport.allocate_bytes", bytesA)
	// One message is one encode plus one decode.
	m.set("transport.codec_allocs_per_msg", float64(m1-m0)/float64(2*probeCodecOps))

	// One mux round trip at a time, then one batch frame at a time.
	var single durations
	var rep transport.StateReport
	for k := 0; k < probeCalls; k++ {
		start := time.Now()
		if err := cli.CallTarget(context.Background(), k%fs.fleet.N(), transport.KindState, transport.StateRequest{Slot: t}, &rep); err != nil {
			return err
		}
		single = append(single, time.Since(start))
	}
	m.set("transport.call_us", single.median(time.Microsecond))
	size := probeBatchSize
	if size > fs.fleet.N() {
		size = fs.fleet.N()
	}
	var perItem []float64
	for k := 0; k < probeBatches; k++ {
		calls := make([]transport.BatchCall, size)
		reps := make([]transport.StateReport, size)
		for i := range calls {
			calls[i] = transport.BatchCall{Target: i, Kind: transport.KindState, Req: transport.StateRequest{Slot: t}, Resp: &reps[i]}
		}
		start := time.Now()
		if err := cli.CallBatch(context.Background(), calls); err != nil {
			return err
		}
		perItem = append(perItem, float64(time.Since(start))/1e3/float64(size))
		for i := range calls {
			if calls[i].Err != nil {
				return calls[i].Err
			}
		}
	}
	m.set("transport.batch_call_us_per_item", median(perItem))

	// The handler alone, on a fresh agent of site 0.
	a, err := agent.New(agent.Config{
		Cluster: fs.in.Cluster, DataCenter: 0, Price: fs.in.Prices[0], Availability: fs.in.Availability,
	})
	if err != nil {
		return err
	}
	stateBody, err := transport.Marshal(transport.StateRequest{Slot: t})
	if err != nil {
		return err
	}
	// A repeated slot would be answered from the agent's replay cache, so each
	// allocate body carries its own slot.
	allocBodies := make([][]byte, probeHandles)
	for k := range allocBodies {
		msg := allocs[0]
		msg.Slot = t + k
		if allocBodies[k], err = transport.Marshal(msg); err != nil {
			return err
		}
	}
	var hState, hAlloc durations
	h0 := mallocs()
	for k := 0; k < probeHandles; k++ {
		start := time.Now()
		if _, err := a.Handle(transport.KindState, stateBody); err != nil {
			return err
		}
		hState = append(hState, time.Since(start))
	}
	for k := 0; k < probeHandles; k++ {
		start := time.Now()
		if _, err := a.Handle(transport.KindAllocate, allocBodies[k]); err != nil {
			return err
		}
		hAlloc = append(hAlloc, time.Since(start))
	}
	h1 := mallocs()
	m.set("agent.handle_state_us", hState.median(time.Microsecond))
	m.set("agent.handle_allocate_us", hAlloc.median(time.Microsecond))
	m.set("agent.handle_allocs", float64(h1-h0)/float64(2*probeHandles))
	return nil
}

// codecProbe times transport.Marshal and transport.Unmarshal over n messages
// and returns mean nanoseconds per encode, per decode, and the mean encoded
// size.
func codecProbe(n int, msg func(i int) any, fresh func() any) (encNS, decNS, size float64, err error) {
	bodies := make([][]byte, n)
	start := time.Now()
	for k := 0; k < probeCodecOps; k++ {
		if bodies[k%n], err = transport.Marshal(msg(k % n)); err != nil {
			return 0, 0, 0, err
		}
	}
	encNS = float64(time.Since(start)) / probeCodecOps
	for _, b := range bodies {
		size += float64(len(b)) / float64(n)
	}
	start = time.Now()
	for k := 0; k < probeCodecOps; k++ {
		if err = transport.Unmarshal(bodies[k%n], fresh()); err != nil {
			return 0, 0, 0, err
		}
	}
	decNS = float64(time.Since(start)) / probeCodecOps
	return encNS, decNS, size, nil
}
