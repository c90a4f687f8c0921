// Package transport implements the wire protocol between the central GreFar
// controller and the per-data-center agents: a minimal synchronous
// request/response RPC over TCP in a versioned fixed-layout binary format
// (wire.go frames, codec.go bodies; DESIGN.md "Wire format v1"), plus the
// typed messages of the scheduling control loop. The paper's system model — a
// central scheduler observing per-site state x_i(t) and issuing per-site
// decisions — maps directly onto this protocol.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"
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

// Handler processes one request body and returns a response body. body
// aliases the connection's receive buffer: it is valid until the handler
// returns, and Unmarshal copies everything it keeps.
type Handler func(kind string, body []byte) (any, error)

// Server accepts connections and dispatches frames to a handler.
type Server struct {
	lis     net.Listener
	handler Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a listener. Call Serve to start accepting.
func NewServer(lis net.Listener, handler Handler) *Server {
	return &Server{lis: lis, handler: handler, conns: make(map[net.Conn]struct{})}
}

// Addr returns the listener address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Serve accepts connections until the server is closed. It blocks; run it in
// a goroutine and call Close to stop.
func (s *Server) Serve() error {
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	for s.serveOne(conn, br) == nil {
	}
}

// serveOne reads, handles and answers one request. Any error — EOF, a broken
// connection, a frame that does not parse — ends the session.
func (s *Server) serveOne(conn net.Conn, br *bufio.Reader) error {
	in, out := getBuf(), getBuf()
	defer putBuf(in)
	defer putBuf(out)
	var err error
	if *in, err = readFrame(br, *in); err != nil {
		return err
	}
	req, err := parseFrame(*in)
	if err != nil {
		return err
	}
	body, herr := s.handler(req.Kind, req.Body)
	if *out, err = appendReply(*out, req.ID, 0, req.Kind, body, herr); err != nil {
		return err
	}
	_, err = conn.Write(*out)
	return err
}

// appendReply appends the response frame for one handled request: the
// handler's body, or its error — or the encoding error, when the handler
// returned something that has no wire layout or does not fit a frame.
func appendReply(dst []byte, id uint64, target int, kind string, body any, herr error) ([]byte, error) {
	if herr == nil {
		var err error
		if dst, err = appendFrame(dst, id, target, kind, "", body); err == nil {
			return dst, nil
		}
		herr = err
	}
	return appendFrame(dst, id, target, kind, herr.Error(), []byte(nil))
}

// Close stops accepting, closes open connections, and waits for in-flight
// requests to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.lis.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("transport: client closed")

// Client is a synchronous RPC client. Calls are serialized over a single
// connection; the control loop issues one request per agent per phase, so no
// pipelining is needed.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	nextID  uint64
	timeout time.Duration
	closed  bool
}

// Dial connects to a server. timeout bounds both the dial and each call;
// zero means 10 seconds.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &Client{conn: conn, br: bufio.NewReader(conn), timeout: timeout}, nil
}

// Call sends a request and decodes the response into respBody (which may be
// nil to discard).
//
// Any failure to send, receive, or match the response leaves the stream in an
// unknown position — after a read deadline the late reply is still on its
// way and would be taken for the answer to the next call — so the client
// closes itself and every later call returns ErrClosed; redial (or use
// ReconnectClient, which does). A remote handler error or an undecodable
// response body arrives in a complete frame and leaves the client usable.
func (c *Client) Call(kind string, reqBody, respBody any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	c.nextID++
	id := c.nextID
	buf := getBuf()
	defer putBuf(buf)
	var err error
	if *buf, err = appendFrame(*buf, id, 0, kind, "", reqBody); err != nil {
		return fmt.Errorf("encode %s: %w", kind, err) // nothing was written
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return c.fail(err)
	}
	if _, err := c.conn.Write(*buf); err != nil {
		return c.fail(fmt.Errorf("send %s: %w", kind, err))
	}
	if *buf, err = readFrame(c.br, *buf); err != nil {
		return c.fail(fmt.Errorf("receive %s: %w", kind, err))
	}
	resp, err := parseFrame(*buf)
	if err != nil {
		return c.fail(fmt.Errorf("receive %s: %w", kind, err))
	}
	if resp.ID != id {
		return c.fail(fmt.Errorf("response id %d does not match request %d", resp.ID, id))
	}
	if resp.Err != "" {
		return &RemoteError{Kind: kind, Message: resp.Err}
	}
	if respBody == nil {
		return nil
	}
	return Unmarshal(resp.Body, respBody)
}

// fail closes the client after a stream-level failure and returns err.
// Caller holds mu.
func (c *Client) fail(err error) error {
	c.closed = true
	c.conn.Close()
	return err
}

// Close shuts down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// Loopback is an in-process connection that routes calls straight to a
// Handler through the same Marshal/Unmarshal round-trip the TCP path uses, so
// tests and experiments exercise the real wire encoding without sockets. It
// is safe for concurrent calls when the handler is.
type Loopback struct {
	handler Handler
}

// NewLoopback wraps a handler (typically agent.Agent.Handle) as a connection.
func NewLoopback(h Handler) *Loopback { return &Loopback{handler: h} }

// Call encodes the request, dispatches it to the handler, and decodes the
// response, mirroring Client.Call's semantics: handler errors come back as
// *RemoteError, exactly as they would over TCP.
func (l *Loopback) Call(kind string, reqBody, respBody any) error {
	body, err := Marshal(reqBody)
	if err != nil {
		return err
	}
	out, err := l.handler(kind, body)
	if err != nil {
		return &RemoteError{Kind: kind, Message: err.Error()}
	}
	if respBody == nil {
		return nil
	}
	data, err := Marshal(out)
	if err != nil {
		return err
	}
	return Unmarshal(data, respBody)
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
