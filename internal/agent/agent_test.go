package agent

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"grefar/internal/availability"
	"grefar/internal/model"
	"grefar/internal/price"
	"grefar/internal/transport"
)

func testAgent(t *testing.T) (*Agent, *model.Cluster) {
	t.Helper()
	c := model.NewReferenceCluster()
	avail, err := availability.NewReferenceAvailability(1, c, 48)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{
		Cluster:      c,
		DataCenter:   1,
		Price:        price.Constant(0.5),
		Availability: avail,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, c
}

func TestNewValidation(t *testing.T) {
	c := model.NewReferenceCluster()
	avail, _ := availability.NewReferenceAvailability(1, c, 10)
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := New(Config{Cluster: c, DataCenter: 9, Price: price.Constant(1), Availability: avail}); err == nil {
		t.Error("out-of-range site accepted")
	}
	if _, err := New(Config{Cluster: c, DataCenter: 0, Availability: avail}); err == nil {
		t.Error("nil price accepted")
	}
	bad := model.NewReferenceCluster()
	bad.JobTypes[0].Demand = 0
	if _, err := New(Config{Cluster: bad, DataCenter: 0, Price: price.Constant(1), Availability: avail}); err == nil {
		t.Error("invalid cluster accepted")
	}
}

// TestNewSites: NewSites builds what New builds, one agent per
// configuration, and refuses what New refuses, naming the configuration. A
// configuration on another cluster has that cluster validated too.
func TestNewSites(t *testing.T) {
	c := model.NewReferenceCluster()
	avail, _ := availability.NewReferenceAvailability(1, c, 10)
	cfg := func(c *model.Cluster, i int) Config {
		return Config{Cluster: c, DataCenter: i, Price: price.Constant(float64(i)), Availability: avail}
	}
	cfgs := []Config{cfg(c, 0), cfg(c, 1), cfg(c, 2)}
	agents, err := NewSites(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range agents {
		want, err := New(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, want) {
			t.Errorf("agent %d differs from New's", i)
		}
	}

	bad := model.NewReferenceCluster()
	bad.JobTypes[0].Demand = 0
	for name, cfgs := range map[string][]Config{
		"out-of-range site":      {cfg(c, 0), cfg(c, 3)},
		"nil price":              {cfg(c, 0), {Cluster: c, DataCenter: 1, Availability: avail}},
		"nil cluster":            {cfg(c, 0), {DataCenter: 1}},
		"invalid second cluster": {cfg(c, 0), cfg(bad, 1)},
	} {
		_, want := New(cfgs[1])
		if _, err := NewSites(cfgs); err == nil || err.Error() != "agent 1: "+want.Error() {
			t.Errorf("%s: NewSites error %v, want agent 1: %v", name, err, want)
		}
	}
	if _, err := NewSites([]Config{cfg(bad, 0)}); !errors.Is(err, model.ErrInvalidCluster) {
		t.Errorf("invalid cluster: %v, want model.ErrInvalidCluster", err)
	}
}

func call(t *testing.T, a *Agent, kind string, req, resp any) error {
	t.Helper()
	body, err := transport.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.AppendReply(nil, kind, body)
	if err != nil {
		return err
	}
	if resp == nil {
		return nil
	}
	return transport.Unmarshal(out, resp)
}

func TestHandlePing(t *testing.T) {
	a, _ := testAgent(t)
	var resp transport.Ping
	if err := call(t, a, transport.KindPing, transport.Ping{Nonce: 9}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Nonce != 9 {
		t.Errorf("Nonce = %d", resp.Nonce)
	}
}

func TestHandleUnknownKind(t *testing.T) {
	a, _ := testAgent(t)
	if _, err := a.AppendReply(nil, "wat", nil); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestStateReport(t *testing.T) {
	a, c := testAgent(t)
	var rep transport.StateReport
	if err := call(t, a, transport.KindState, transport.StateRequest{Slot: 5}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.DataCenter != 1 || rep.Slot != 5 {
		t.Errorf("report header wrong: %+v", rep)
	}
	if rep.Price != 0.5 {
		t.Errorf("price = %v", rep.Price)
	}
	if len(rep.Avail) != c.K(1) || len(rep.QueueLens) != c.J() {
		t.Errorf("report dimensions wrong")
	}
}

func TestAllocateLifecycle(t *testing.T) {
	a, c := testAgent(t)

	// Slot 0: route 4 jobs of type 0; nothing to process yet.
	alloc := transport.Allocate{
		Slot:    0,
		Route:   make([]int, c.J()),
		Process: make([]float64, c.J()),
		Busy:    make([]float64, c.K(1)),
	}
	alloc.Route[0] = 4
	var ack transport.AllocateAck
	if err := call(t, a, transport.KindAllocate, alloc, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Processed[0] != 0 {
		t.Errorf("processed before anything queued: %v", ack.Processed[0])
	}
	if got := a.QueueLens()[0]; got != 4 {
		t.Errorf("queue = %v, want 4", got)
	}

	// Slot 1: process 3; delay must be one slot each; energy billed from
	// busy servers.
	alloc = transport.Allocate{
		Slot:    1,
		Route:   make([]int, c.J()),
		Process: make([]float64, c.J()),
		Busy:    make([]float64, c.K(1)),
	}
	alloc.Process[0] = 3
	alloc.Busy[0] = 4 // speed 0.75 covers 3 work units
	if err := call(t, a, transport.KindAllocate, alloc, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Processed[0] != 3 || ack.DelaySum[0] != 3 {
		t.Errorf("processed %v delay %v, want 3 and 3", ack.Processed[0], ack.DelaySum[0])
	}
	// Energy: price 0.5 * 4 busy * power 0.60 = 1.2.
	if math.Abs(ack.Energy-1.2) > 1e-12 {
		t.Errorf("energy = %v, want 1.2", ack.Energy)
	}
	if math.Abs(ack.Work-3) > 1e-12 {
		t.Errorf("work = %v, want 3", ack.Work)
	}
	if got := a.QueueLens()[0]; got != 1 {
		t.Errorf("queue = %v, want 1", got)
	}
}

func TestAllocateSameSlotRouteNotProcessable(t *testing.T) {
	a, c := testAgent(t)
	alloc := transport.Allocate{
		Slot:    0,
		Route:   make([]int, c.J()),
		Process: make([]float64, c.J()),
		Busy:    make([]float64, c.K(1)),
	}
	alloc.Route[0] = 2
	alloc.Process[0] = 2
	var ack transport.AllocateAck
	if err := call(t, a, transport.KindAllocate, alloc, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Processed[0] != 0 {
		t.Errorf("same-slot routed jobs processed: %v", ack.Processed[0])
	}
}

func TestAllocateRejectsMalformed(t *testing.T) {
	a, c := testAgent(t)
	bad := transport.Allocate{Route: []int{1}, Process: []float64{1}, Busy: []float64{1}}
	if err := call(t, a, transport.KindAllocate, bad, nil); err == nil {
		t.Error("wrong dimensions accepted")
	}
	alloc := transport.Allocate{
		Route:   make([]int, c.J()),
		Process: make([]float64, c.J()),
		Busy:    make([]float64, c.K(1)),
	}
	alloc.Process[0] = -1
	if err := call(t, a, transport.KindAllocate, alloc, nil); err == nil {
		t.Error("negative process accepted")
	}
	alloc.Process[0] = 0
	alloc.Busy[0] = -1
	if err := call(t, a, transport.KindAllocate, alloc, nil); err == nil {
		t.Error("negative busy accepted")
	}
}

// TestRejectedAllocateLeavesNoTrace is the regression test for the
// half-applied allocation: a request whose bad entry sits behind good ones
// (or in Busy, or is NaN — which passes every "< 0" test) used to fail after
// the earlier ledgers had been popped and pushed, with the replay cache not
// advanced, so the controller's corrected resend applied them twice. Every
// rejection must leave the queues and the snapshot bit-identical, and the
// corrected resend for the same slot must execute exactly once.
func TestRejectedAllocateLeavesNoTrace(t *testing.T) {
	a, c := testAgent(t)
	// Backlog in every queue, so a half-applied request would move something.
	seed := transport.Allocate{Slot: 0, Route: make([]int, c.J()), Process: make([]float64, c.J()), Busy: make([]float64, c.K(1))}
	for j := range seed.Route {
		seed.Route[j] = 5 + j
	}
	if err := call(t, a, transport.KindAllocate, seed, nil); err != nil {
		t.Fatal(err)
	}
	lensBefore := a.QueueLens()
	snapBefore, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	good := func() transport.Allocate {
		req := transport.Allocate{Slot: 1, Route: make([]int, c.J()), Process: make([]float64, c.J()), Busy: make([]float64, c.K(1))}
		for j := range req.Route {
			req.Route[j] = 2
			req.Process[j] = 1
		}
		return req
	}
	last := c.J() - 1
	for name, corrupt := range map[string]func(*transport.Allocate){
		"negative process behind good entries": func(r *transport.Allocate) { r.Process[last] = -1 },
		"negative route behind good entries":   func(r *transport.Allocate) { r.Route[last] = -1 },
		"NaN process":                          func(r *transport.Allocate) { r.Process[last] = math.NaN() },
		"infinite process":                     func(r *transport.Allocate) { r.Process[0] = math.Inf(1) },
		"negative busy":                        func(r *transport.Allocate) { r.Busy[0] = -1 },
		"NaN busy":                             func(r *transport.Allocate) { r.Busy[0] = math.NaN() },
	} {
		req := good()
		corrupt(&req)
		err := call(t, a, transport.KindAllocate, req, nil)
		if !errors.Is(err, transport.ErrMalformedAllocate) {
			t.Errorf("%s: err = %v, want ErrMalformedAllocate", name, err)
		}
		if got := a.QueueLens(); !reflect.DeepEqual(got, lensBefore) {
			t.Errorf("%s: queues moved on a rejected allocation: %v, want %v", name, got, lensBefore)
		}
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(snap, snapBefore) {
			t.Errorf("%s: snapshot changed on a rejected allocation", name)
		}
	}

	// The corrected resend for the same slot executes, once.
	var ack transport.AllocateAck
	if err := call(t, a, transport.KindAllocate, good(), &ack); err != nil {
		t.Fatal(err)
	}
	for j, l := range a.QueueLens() {
		if want := lensBefore[j] - 1 + 2; l != want {
			t.Errorf("queue[%d] = %v after the corrected resend, want %v", j, l, want)
		}
		if ack.Processed[j] != 1 {
			t.Errorf("processed[%d] = %v, want 1", j, ack.Processed[j])
		}
	}
	lensAfter := a.QueueLens()
	if err := call(t, a, transport.KindAllocate, good(), nil); err != nil {
		t.Fatal(err)
	}
	if got := a.QueueLens(); !reflect.DeepEqual(got, lensAfter) {
		t.Errorf("duplicate of the executed allocation moved the queues: %v, want %v", got, lensAfter)
	}
}

func TestAgentSnapshotRestore(t *testing.T) {
	a, c := testAgent(t)
	alloc := transport.Allocate{
		Slot:    0,
		Route:   make([]int, c.J()),
		Process: make([]float64, c.J()),
		Busy:    make([]float64, c.K(1)),
	}
	alloc.Route[0] = 5
	alloc.Route[3] = 2
	if err := call(t, a, transport.KindAllocate, alloc, nil); err != nil {
		t.Fatal(err)
	}

	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := testAgent(t)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	want := a.QueueLens()
	got := fresh.QueueLens()
	for j := range want {
		if want[j] != got[j] {
			t.Errorf("queue[%d] = %v, want %v", j, got[j], want[j])
		}
	}

	// Delay accounting survives: process on the restored agent at slot 4
	// and expect 4-slot delays.
	proc := transport.Allocate{
		Slot:    4,
		Route:   make([]int, c.J()),
		Process: make([]float64, c.J()),
		Busy:    make([]float64, c.K(1)),
	}
	proc.Process[0] = 5
	var ack transport.AllocateAck
	if err := call(t, fresh, transport.KindAllocate, proc, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.DelaySum[0] != 20 { // 5 jobs * 4 slots
		t.Errorf("delay sum = %v, want 20", ack.DelaySum[0])
	}

	if err := fresh.Restore([]byte("junk")); err == nil {
		t.Error("junk snapshot accepted")
	}
}

// TestAllocateIdempotentReplay re-sends an executed slot's allocation — the
// retransmission shape a duplicating or retrying transport produces — and
// checks the ledgers move exactly once while the cached ack is replayed.
func TestAllocateIdempotentReplay(t *testing.T) {
	a, c := testAgent(t)

	route := make([]int, c.J())
	route[0] = 6
	alloc := transport.Allocate{
		Slot:    0,
		Route:   route,
		Process: make([]float64, c.J()),
		Busy:    make([]float64, c.K(1)),
	}
	var first transport.AllocateAck
	if err := call(t, a, transport.KindAllocate, alloc, &first); err != nil {
		t.Fatal(err)
	}
	lensAfterFirst := a.QueueLens()

	var replay transport.AllocateAck
	if err := call(t, a, transport.KindAllocate, alloc, &replay); err != nil {
		t.Fatalf("replayed allocation rejected: %v", err)
	}
	for j := range lensAfterFirst {
		if got := a.QueueLens()[j]; got != lensAfterFirst[j] {
			t.Errorf("queue[%d] = %v after replay, want %v (ledgers moved twice)", j, got, lensAfterFirst[j])
		}
	}
	if replay.Slot != first.Slot || replay.Work != first.Work {
		t.Errorf("replayed ack %+v differs from original %+v", replay, first)
	}

	// A new slot executes normally: process the queued jobs.
	proc := make([]float64, c.J())
	proc[0] = 6
	busy := make([]float64, c.K(1))
	busy[0] = 6 * c.JobTypes[0].Demand / c.DataCenters[1].Servers[0].Speed
	var second transport.AllocateAck
	if err := call(t, a, transport.KindAllocate, transport.Allocate{
		Slot: 1, Route: make([]int, c.J()), Process: proc, Busy: busy,
	}, &second); err != nil {
		t.Fatal(err)
	}
	if second.Processed[0] != 6 {
		t.Errorf("slot 1 processed %v, want 6 (replay cache leaked into a new slot)", second.Processed[0])
	}
}

// TestRestoreRPC pushes backlog into one agent, snapshots it, and restores a
// fresh agent over the wire protocol: the echoed lengths must match exactly
// and the replay cache must be invalidated.
func TestRestoreRPC(t *testing.T) {
	a, c := testAgent(t)
	route := make([]int, c.J())
	route[0], route[1] = 3, 5
	if err := call(t, a, transport.KindAllocate, transport.Allocate{
		Slot: 0, Route: route, Process: make([]float64, c.J()), Busy: make([]float64, c.K(1)),
	}, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fresh, _ := testAgent(t)
	var ack transport.RestoreAck
	if err := call(t, fresh, transport.KindRestore, transport.RestoreRequest{Slot: 7, Snapshot: snap}, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Slot != 7 {
		t.Errorf("ack slot = %d, want 7", ack.Slot)
	}
	want := a.QueueLens()
	for j := range want {
		if ack.QueueLens[j] != want[j] {
			t.Errorf("restored queue[%d] = %v, want %v", j, ack.QueueLens[j], want[j])
		}
		if got := fresh.QueueLens()[j]; got != want[j] {
			t.Errorf("agent queue[%d] = %v, want %v", j, got, want[j])
		}
	}
	if fresh.lastSlot != -1 {
		t.Error("restore left the allocation-replay cache live")
	}

	// An allocate for a slot before the restore's was sent before it — one
	// the controller abandoned in flight — and is refused, leaving the
	// ledgers and the replay cache as they were.
	alloc := func(slot int) error {
		return call(t, fresh, transport.KindAllocate, transport.Allocate{
			Slot: slot, Route: route, Process: make([]float64, c.J()), Busy: make([]float64, c.K(1)),
		}, nil)
	}
	before, err := fresh.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	err = alloc(6)
	if err == nil {
		t.Fatal("allocate for slot 6 executed after the restore at slot 7")
	}
	if msg := err.Error(); !strings.Contains(msg, "slot 6") || !strings.Contains(msg, "slot 7") {
		t.Errorf("refusal %q does not name both slots", msg)
	}
	if after, _ := fresh.Snapshot(); !bytes.Equal(after, before) {
		t.Error("the refused allocate moved the ledgers")
	}
	if fresh.lastSlot != -1 {
		t.Errorf("the refused allocate set the replay cache to slot %d", fresh.lastSlot)
	}
	if err := alloc(7); err != nil {
		t.Fatalf("allocate at the restore's slot: %v", err)
	}
	if after, _ := fresh.Snapshot(); bytes.Equal(after, before) || fresh.lastSlot != 7 {
		t.Error("allocate at the restore's slot did not execute")
	}

	// A rejected restore leaves the floor where the last good one put it;
	// a restore to an earlier slot lowers it.
	if err := call(t, fresh, transport.KindRestore, transport.RestoreRequest{Slot: 3, Snapshot: snap}, nil); err != nil {
		t.Fatal(err)
	}
	if err := call(t, fresh, transport.KindRestore, transport.RestoreRequest{Slot: 9, Snapshot: []byte("junk")}, nil); err == nil {
		t.Error("junk snapshot accepted")
	}
	if err := alloc(3); err != nil {
		t.Fatalf("allocate at slot 3 after a restore rewound to slot 3: %v", err)
	}
	if fresh.lastSlot != 3 {
		t.Errorf("replay cache at slot %d after the allocate at slot 3", fresh.lastSlot)
	}
}
