// Package transport implements the wire protocol between the central GreFar
// controller and the per-data-center agents: a minimal synchronous
// request/response RPC over TCP in a versioned fixed-layout binary format
// (wire.go frames, codec.go bodies; DESIGN.md "Wire format v1"), plus the
// typed messages of the scheduling control loop. The paper's system model — a
// central scheduler observing per-site state x_i(t) and issuing per-site
// decisions — maps directly onto this protocol.
package transport

import (
	"errors"
	"fmt"
	"math"
)

// Message kinds understood by agents.
const (
	// KindState asks an agent for its slot state (availability, price,
	// local queue lengths).
	KindState = "state"
	// KindAllocate delivers the controller's slot decision to an agent.
	KindAllocate = "allocate"
	// KindPing checks liveness.
	KindPing = "ping"
	// KindRestore replaces an agent's local queue state from a controller
	// snapshot, re-syncing a rejoined agent onto the controller's view.
	KindRestore = "restore"
)

// StateRequest asks an agent to reveal its state for a slot.
type StateRequest struct {
	Slot int
}

// StateReport is an agent's view of its data center at the beginning of a
// slot: the components of x_i(t) plus its local queue backlogs q_{i,j}(t).
type StateReport struct {
	Slot int
	// DataCenter is the agent's site index i.
	DataCenter int
	// Avail[k] is n_{i,k}(t).
	Avail []float64
	// Price is phi_i(t).
	Price float64
	// QueueLens[j] is q_{i,j}(t).
	QueueLens []float64
}

// Allocate carries the controller's decision for one site and slot: the jobs
// being routed in, the jobs to process, and the servers to keep busy.
type Allocate struct {
	Slot int
	// Route[j] is r_{i,j}(t): jobs of type j being dispatched to this site.
	Route []int
	// Process[j] is h_{i,j}(t).
	Process []float64
	// Busy[k] is b_{i,k}(t).
	Busy []float64
}

// ErrMalformedAllocate classifies an Allocate that fails Validate.
var ErrMalformedAllocate = errors.New("transport: malformed allocation")

// Validate checks the allocation against the receiving site's dimensions (K
// server types, J job types): lengths must match, route counts must be
// non-negative, and every process and busy amount must be finite and
// non-negative (NaN fails). An agent validates the whole request before it
// touches a ledger, so a rejected allocation leaves no trace and the
// corrected resend executes exactly once. Errors wrap ErrMalformedAllocate.
func (a *Allocate) Validate(numServers, numJobTypes int) error {
	switch {
	case len(a.Route) != numJobTypes || len(a.Process) != numJobTypes:
		return fmt.Errorf("%w: slot %d has %d route and %d process entries, want %d", ErrMalformedAllocate, a.Slot, len(a.Route), len(a.Process), numJobTypes)
	case len(a.Busy) != numServers:
		return fmt.Errorf("%w: slot %d has %d busy entries, want %d", ErrMalformedAllocate, a.Slot, len(a.Busy), numServers)
	}
	for j := range a.Route {
		if a.Route[j] < 0 || !isFiniteNonNeg(a.Process[j]) {
			return fmt.Errorf("%w: slot %d job type %d: route %d, process %v", ErrMalformedAllocate, a.Slot, j, a.Route[j], a.Process[j])
		}
	}
	for k, b := range a.Busy {
		if !isFiniteNonNeg(b) {
			return fmt.Errorf("%w: slot %d busy[%d]=%v", ErrMalformedAllocate, a.Slot, k, b)
		}
	}
	return nil
}

// AllocateAck reports what the agent actually did.
type AllocateAck struct {
	Slot int
	// Processed[j] is the number of type-j jobs actually completed (capped
	// at queue content).
	Processed []float64
	// DelaySum[j] is the summed waiting time of the processed jobs.
	DelaySum []float64
	// Energy is e_i(t) under the agent's local price.
	Energy float64
	// Work is the processed service demand this slot.
	Work float64
}

// ErrMalformedReport classifies a StateReport that fails Validate; wrap
// checks with errors.Is. A malformed report means the agent and controller
// disagree about the cluster shape (or the payload was corrupted in flight),
// so the controller must reject it before assembling the global state rather
// than panic or silently corrupt the slot downstream.
var ErrMalformedReport = errors.New("transport: malformed state report")

// Validate checks the report against the expected site index, slot, and
// cluster dimensions (K server types at this site, J job types): lengths must
// match, and every numeric field must be finite and non-negative. Errors wrap
// ErrMalformedReport.
func (r *StateReport) Validate(site, slot, numServers, numJobTypes int) error {
	switch {
	case r.DataCenter != site:
		return fmt.Errorf("%w: reported site %d, want %d", ErrMalformedReport, r.DataCenter, site)
	case r.Slot != slot:
		return fmt.Errorf("%w: site %d reported slot %d, want %d", ErrMalformedReport, site, r.Slot, slot)
	case len(r.Avail) != numServers:
		return fmt.Errorf("%w: site %d reported %d availability entries, want %d", ErrMalformedReport, site, len(r.Avail), numServers)
	case len(r.QueueLens) != numJobTypes:
		return fmt.Errorf("%w: site %d reported %d queue lengths, want %d", ErrMalformedReport, site, len(r.QueueLens), numJobTypes)
	}
	if !isFiniteNonNeg(r.Price) {
		return fmt.Errorf("%w: site %d reported price %v", ErrMalformedReport, site, r.Price)
	}
	for k, v := range r.Avail {
		if !isFiniteNonNeg(v) {
			return fmt.Errorf("%w: site %d reported avail[%d]=%v", ErrMalformedReport, site, k, v)
		}
	}
	for j, v := range r.QueueLens {
		if !isFiniteNonNeg(v) {
			return fmt.Errorf("%w: site %d reported queue[%d]=%v", ErrMalformedReport, site, j, v)
		}
	}
	return nil
}

// isFiniteNonNeg reports whether v is a finite, non-negative float (NaN and
// infinities fail).
func isFiniteNonNeg(v float64) bool {
	return v >= 0 && v <= math.MaxFloat64
}

// RestoreRequest carries a queue.SnapshotLedgers payload for the agent's
// local queues; the controller sends it to re-sync a rejoining agent onto the
// authoritative (shadow) queue state it tracked through the outage.
type RestoreRequest struct {
	Slot     int
	Snapshot []byte
}

// RestoreAck confirms a restore and echoes the post-restore queue lengths so
// the controller can verify the agent landed exactly on the intended state.
type RestoreAck struct {
	Slot      int
	QueueLens []float64
}

// Ping is a liveness probe; agents echo it. Slot tags the probe with the
// control-loop slot that issued it (zero for plain liveness checks), letting
// slot-aware transport middleware — the chaos injector's partition windows —
// decide the probe's fate deterministically.
type Ping struct {
	Nonce uint64
	Slot  int
}

// Handler processes one request body: it appends its encoded reply body to
// dst (with Append, for a message) and returns the extended slice. Both body
// and dst belong to the connection — body aliases its receive buffer, dst is
// the reply frame being built — and are valid only during the call: a handler
// keeps neither, and Unmarshal copies everything it decodes. On an error the
// returned slice is ignored; whatever the handler had appended is discarded
// and the peer gets the error string with an empty body. A handler that
// serves shared state encodes its reply before it releases that state's lock,
// so nothing it owns is read after it returns.
type Handler func(dst []byte, kind string, body []byte) ([]byte, error)

// appendReply appends the response frame for one request: the frame header,
// then whatever the handler appends as its body. A handler error — or a body
// that does not fit a frame — rewinds to the frame's start and appends the
// error frame instead: the error string and an empty body.
func appendReply(dst []byte, id uint64, target int, kind string, body []byte, h MuxHandler) ([]byte, error) {
	start := len(dst)
	dst = appendFrameHeader(dst, id, target, kind, "")
	out, herr := h(dst, target, kind, body)
	if herr == nil {
		if out, herr = finishFrame(out, start); herr == nil {
			return out, nil
		}
	}
	return appendErrorFrame(dst[:start], id, target, kind, herr)
}

// appendErrorFrame appends the response frame that carries err and no body.
func appendErrorFrame(dst []byte, id uint64, target int, kind string, err error) ([]byte, error) {
	return finishFrame(appendFrameHeader(dst, id, target, kind, err.Error()), len(dst))
}

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("transport: client closed")

// Loopback is an in-process connection that routes calls straight to a
// Handler through the same reply frame and body codec the TCP path uses, so
// tests and experiments exercise the real wire encoding without sockets. It
// is safe for concurrent calls when the handler is.
type Loopback struct {
	handler MuxHandler
}

// NewLoopback wraps a handler (typically agent.Agent.AppendReply) as a
// connection, adapting it once to the target-carrying form the reply path
// takes.
func NewLoopback(h Handler) *Loopback {
	return &Loopback{handler: func(dst []byte, _ int, kind string, body []byte) ([]byte, error) { return h(dst, kind, body) }}
}

// Call encodes the request, has the handler build the reply frame a MuxServer
// would have written, and decodes it as MuxClient.CallTarget does: handler
// errors — and a reply over the frame cap — come back as *RemoteError, exactly
// as they would over TCP.
func (l *Loopback) Call(kind string, reqBody, respBody any) error {
	in, out := getBuf(), getBuf()
	defer putBuf(in)
	defer putBuf(out)
	var err error
	if *in, err = appendBody(*in, reqBody); err != nil {
		return err
	}
	if *out, err = appendReply(*out, 0, 0, kind, *in, l.handler); err != nil {
		return err
	}
	resp, err := parseFrame((*out)[4:])
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return &RemoteError{Kind: kind, Message: resp.Err}
	}
	if respBody == nil {
		return nil
	}
	return Unmarshal(resp.Body, respBody)
}

// RemoteError is an error returned by the remote handler, preserving the
// request kind for context.
type RemoteError struct {
	Kind    string
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote %s: %s", e.Kind, e.Message)
}
