package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"grefar/internal/controller"
	"grefar/internal/model"
	"grefar/internal/queue"
	"grefar/internal/sched"
	"grefar/internal/transport"
)

// Span names. A span is recorded by benchmark code wrapped around one public
// call into a layer; nothing inside the packages under test is instrumented.
const (
	spanTick   = "tick"        // one RunSlot / Engine.Step / Server.Tick
	spanDecide = "core.decide" // one sched.Scheduler.Decide
	spanCall   = "agent.call"  // one AgentConn call, tagged with its kind
)

// span is one timed interval. Times are nanoseconds since the recorder was
// created; Slot is the identifier every span of one tick shares; Parent is
// the index of the enclosing span in the recorder (-1 for a tick).
type span struct {
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"`
	Slot   int    `json:"slot"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// window is the interval from the first start to the last end of a set of
// spans, the time a fan-out of parallel calls blocks its caller.
type window struct {
	first, last int64
	n           int
}

func (w *window) add(start, end int64) {
	if w.n == 0 || start < w.first {
		w.first = start
	}
	if w.n == 0 || end > w.last {
		w.last = end
	}
	w.n++
}

func (w window) length() time.Duration {
	if w.n == 0 {
		return 0
	}
	return time.Duration(w.last - w.first)
}

// slotLayers is what the decorators measured inside one tick.
type slotLayers struct {
	tick      time.Duration
	decide    time.Duration // busy time, summed over Decide calls
	decideMax time.Duration // longest single Decide (the slowest partition)
	decides   int
	calls     map[string]*window // per message kind
}

// recorder keeps spans in memory and per-slot layer totals. It is shared by
// the decorators of one run; the driver goroutine opens and closes ticks, the
// decorators add child spans from any goroutine.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	tick  int // index of the open tick span, -1 when none
	cur   slotLayers
	slots []slotLayers
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), tick: -1}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// beginTick opens the tick span for slot t.
func (r *recorder) beginTick(t int) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: spanTick, Slot: t, Parent: -1, Start: r.now()})
	r.tick = len(r.spans) - 1
	r.cur = slotLayers{calls: map[string]*window{}}
	r.mu.Unlock()
}

// endTick closes the open tick span and files its layer totals.
func (r *recorder) endTick() {
	r.mu.Lock()
	sp := &r.spans[r.tick]
	sp.End = r.now()
	r.cur.tick = time.Duration(sp.End - sp.Start)
	r.slots = append(r.slots, r.cur)
	r.tick = -1
	r.mu.Unlock()
}

// child records a finished child span of the open tick. Outside a tick (the
// warm-up, a probe) it records nothing.
func (r *recorder) child(name, tag string, start, end int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tick < 0 {
		return
	}
	r.spans = append(r.spans, span{
		Name: name, Tag: tag, Slot: r.spans[r.tick].Slot, Parent: r.tick, Start: start, End: end,
	})
	switch name {
	case spanDecide:
		d := time.Duration(end - start)
		r.cur.decide += d
		if d > r.cur.decideMax {
			r.cur.decideMax = d
		}
		r.cur.decides++
	case spanCall:
		w := r.cur.calls[tag]
		if w == nil {
			w = &window{}
			r.cur.calls[tag] = w
		}
		w.add(start, end)
	}
}

// write stores the spans as JSON under dir.
func (r *recorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), data, 0o644)
}

// tracedScheduler times every Decide of the scheduler it wraps.
type tracedScheduler struct {
	inner sched.Scheduler
	rec   *recorder
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Decide(t int, st *model.State, q queue.Lengths) (*model.Action, error) {
	start := s.rec.now()
	act, err := s.inner.Decide(t, st, q)
	s.rec.child(spanDecide, "", start, s.rec.now())
	return act, err
}

// tracedConn times every call to one agent. It forwards the context-aware
// surface so the controller keeps using CallContext as it does on a raw
// transport.MuxConn.
type tracedConn struct {
	inner *transport.MuxConn
	rec   *recorder
}

var _ controller.ContextAgentConn = (*tracedConn)(nil)

func (c *tracedConn) Call(kind string, req, resp any) error {
	return c.CallContext(context.Background(), kind, req, resp)
}

func (c *tracedConn) CallContext(ctx context.Context, kind string, req, resp any) error {
	start := c.rec.now()
	err := c.inner.CallContext(ctx, kind, req, resp)
	c.rec.child(spanCall, kind, start, c.rec.now())
	return err
}

// traceConns wraps every connection of a fleet.
func traceConns(conns []controller.AgentConn, rec *recorder) ([]controller.AgentConn, error) {
	out := make([]controller.AgentConn, len(conns))
	for i, c := range conns {
		mc, ok := c.(*transport.MuxConn)
		if !ok {
			return nil, fmt.Errorf("agent conn %d is %T, want *transport.MuxConn", i, c)
		}
		out[i] = &tracedConn{inner: mc, rec: rec}
	}
	return out, nil
}
