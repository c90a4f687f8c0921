package agent

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"grefar/internal/transport"
)

// The agent builds every state report and allocation ack in storage it keeps
// and hands the transport encoded bytes only. These tests hold the two ways
// that reuse could leak: a rejected request disturbing the replay cache, and
// concurrent requests reading a reply that another is rewriting.

func marshal(t *testing.T, v any) []byte {
	t.Helper()
	body, err := transport.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestRejectedAllocateKeepsReplayCache: a rejected Allocate(t+1) decodes into
// the agent's one request and fails validation next to the cached ack of slot
// t. The cache must survive it byte for byte — a re-sent Allocate(t) is
// answered with exactly the first ack — and the corrected Allocate(t+1) then
// executes once.
func TestRejectedAllocateKeepsReplayCache(t *testing.T) {
	a, c := testAgent(t)
	alloc := func(slot int) transport.Allocate {
		req := transport.Allocate{Slot: slot, Route: make([]int, c.J()), Process: make([]float64, c.J()), Busy: make([]float64, c.K(1))}
		for j := range req.Route {
			req.Route[j], req.Process[j] = 4+j, 1.5
		}
		req.Busy[0] = 2
		return req
	}
	if _, err := a.AppendReply(nil, transport.KindAllocate, marshal(t, alloc(0))); err != nil {
		t.Fatal(err)
	}
	first, err := a.AppendReply(nil, transport.KindAllocate, marshal(t, alloc(1)))
	if err != nil {
		t.Fatal(err)
	}
	lens := a.QueueLens()

	last := c.J() - 1
	for name, corrupt := range map[string]func(*transport.Allocate){
		"short route":  func(r *transport.Allocate) { r.Route = r.Route[:last] },
		"long process": func(r *transport.Allocate) { r.Process = append(r.Process, 1) },
		"extra busy":   func(r *transport.Allocate) { r.Busy = append(r.Busy, 1) },
		"NaN process":  func(r *transport.Allocate) { r.Process[last] = math.NaN() },
		"NaN busy":     func(r *transport.Allocate) { r.Busy[0] = math.NaN() },
	} {
		bad := alloc(2)
		corrupt(&bad)
		dst := []byte("prefix")
		out, err := a.AppendReply(dst, transport.KindAllocate, marshal(t, bad))
		if !errors.Is(err, transport.ErrMalformedAllocate) {
			t.Fatalf("%s: err = %v, want ErrMalformedAllocate", name, err)
		}
		if len(out) > len(dst) {
			t.Errorf("%s: a rejected allocation appended %d reply bytes", name, len(out)-len(dst))
		}
		replay, err := a.AppendReply(nil, transport.KindAllocate, marshal(t, alloc(1)))
		if err != nil {
			t.Fatalf("%s: replay of slot 1: %v", name, err)
		}
		if !bytes.Equal(replay, first) {
			t.Errorf("%s: replayed ack differs from the first\n got %x\nwant %x", name, replay, first)
		}
		for j, l := range a.QueueLens() {
			if l != lens[j] {
				t.Errorf("%s: queue[%d] moved to %v, want %v", name, j, l, lens[j])
			}
		}
	}

	var ack transport.AllocateAck
	if err := call(t, a, transport.KindAllocate, alloc(2), &ack); err != nil {
		t.Fatal(err)
	}
	applied := a.QueueLens()
	for j, l := range applied {
		if want := lens[j] - 1.5 + float64(4+j); l != want || ack.Processed[j] != 1.5 {
			t.Errorf("corrected slot 2: queue[%d] = %v (want %v), processed %v (want 1.5)", j, l, want, ack.Processed[j])
		}
	}
	if err := call(t, a, transport.KindAllocate, alloc(2), nil); err != nil {
		t.Fatal(err)
	}
	for j, l := range a.QueueLens() {
		if l != applied[j] {
			t.Errorf("duplicate of slot 2 moved queue[%d] to %v, want %v", j, l, applied[j])
		}
	}
}

// TestConcurrentRepliesAreSelfConsistent fires state requests, duplicates of
// the executed Allocate(t) and Allocate(t+1) at one agent from many
// goroutines. Which of the allocations replay and which execute depends on
// the interleaving (the agent replays only its last executed slot), but every
// reply was encoded under the agent's lock from storage the next request
// rewrites, so each must decode to one coherent message: a report that
// validates, an ack that echoes its request's slot, processes no more than
// was asked, and whose Work and Energy are exactly what its own Processed
// and the request's Busy add up to. Run under -race this also proves nothing
// reads that storage after the unlock.
func TestConcurrentRepliesAreSelfConsistent(t *testing.T) {
	a, c := testAgent(t)
	alloc := func(slot int) transport.Allocate {
		req := transport.Allocate{Slot: slot, Route: make([]int, c.J()), Process: make([]float64, c.J()), Busy: make([]float64, c.K(1))}
		for j := range req.Route {
			req.Route[j], req.Process[j] = 3+j+slot, float64(1+slot)+0.25*float64(j)
		}
		req.Busy[0] = float64(1 + slot)
		return req
	}
	if _, err := a.AppendReply(nil, transport.KindAllocate, marshal(t, alloc(5))); err != nil {
		t.Fatal(err)
	}

	const rounds = 300
	var wg sync.WaitGroup
	run := func(check func(dst []byte) ([]byte, error)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var dst []byte
			for k := 0; k < rounds; k++ {
				var err error
				if dst, err = check(dst[:0]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stateBody := marshal(t, transport.StateRequest{Slot: 6})
	state := func(dst []byte) ([]byte, error) {
		dst, err := a.AppendReply(dst, transport.KindState, stateBody)
		if err != nil {
			return dst, err
		}
		var rep transport.StateReport
		if err := transport.Unmarshal(dst, &rep); err != nil {
			return dst, err
		}
		return dst, rep.Validate(1, 6, c.K(1), c.J())
	}
	allocate := func(slot int) func(dst []byte) ([]byte, error) {
		req := alloc(slot)
		body := marshal(t, req)
		energy := 0.5 * req.Busy[0] * c.DataCenters[1].Servers[0].Power // price.Constant(0.5)
		return func(dst []byte) ([]byte, error) {
			dst, err := a.AppendReply(dst, transport.KindAllocate, body)
			if err != nil {
				return dst, err
			}
			var ack transport.AllocateAck
			if err := transport.Unmarshal(dst, &ack); err != nil {
				return dst, err
			}
			if ack.Slot != slot || len(ack.Processed) != c.J() || len(ack.DelaySum) != c.J() || ack.Energy != energy {
				return dst, fmt.Errorf("slot %d answered with %+v (want energy %v)", slot, ack, energy)
			}
			var work float64
			for j, p := range ack.Processed {
				if p < 0 || p > req.Process[j] {
					return dst, fmt.Errorf("slot %d processed[%d] = %v of %v asked", slot, j, p, req.Process[j])
				}
				work += p * c.JobTypes[j].Demand
			}
			if work != ack.Work {
				return dst, fmt.Errorf("slot %d ack is torn: work %v, processed %v add up to %v", slot, ack.Work, ack.Processed, work)
			}
			return dst, nil
		}
	}
	for g := 0; g < 2; g++ {
		run(state)
		run(allocate(5))
		run(allocate(6))
	}
	wg.Wait()
}
