// The transport's one endpoint pair: many logical endpoints behind one
// listener, many in-flight calls on one connection. A real agent is the
// degenerate case — one endpoint per listener, addressed as target 0, which
// its handler ignores (agent.Serve, ReconnectClient) — and a hollow fleet of
// thousands the general one; both speak the same frames through the same
// code:
//
//   - MuxServer hosts any number of targets behind a single listener. Each
//     request frame carries a Target index and is dispatched to one handler
//     with that index; in-flight frames on a connection are served
//     concurrently, so one slow target never head-of-line-blocks the calls
//     in other frames. The items inside one batch frame share a bounded set
//     of workers, and finished workers park for the next frame (see
//     MuxServer).
//
//   - MuxClient pipelines calls: any number of goroutines issue requests on
//     the same connection concurrently, and a reader goroutine routes each
//     response back to its caller by frame ID. A gather over N agents
//     therefore costs max(RTT) wall-clock, not N*RTT.
//
// Agent(target) binds a MuxClient to one target index as a per-agent
// connection satisfying the controller's AgentConn and ContextAgentConn.
package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// MuxHandler processes one request addressed to a target endpoint under
// Handler's contract: it appends its encoded reply body to dst and returns the
// extended slice, body and dst are valid only during the call, and on an
// error whatever it had appended is discarded. Inside a batch frame dst is a
// buffer shared by the items one worker serves, so a handler must append to
// it and nothing else.
type MuxHandler func(dst []byte, target int, kind string, body []byte) ([]byte, error)

// KindBatch is the reserved frame kind carrying a batch of requests. The
// server unpacks it itself; handlers never see it.
const KindBatch = "__batch"

// MuxServer accepts connections and dispatches frames to a target-aware
// handler. Every request frame on a connection is served concurrently with
// the others; each response is one Write, serialized by a per-connection
// lock.
//
// A batch frame (CallBatch) is one request: its items run on
// min(GOMAXPROCS, items) workers and its one reply frame is written when the
// last item has finished. So a hung handler stalls its whole batch — as it
// always did, the reply being one frame — and k slow handlers in a batch cost
// ceil(k/workers) of them, not one. Handlers are expected to be CPU-bound and
// short (an agent's ledger update); a caller whose handlers block for long
// should send them as separate frames, which still run concurrently, as do
// batch frames on different connections.
//
// Frames and a batch's helper shares run on workers that park when they
// finish: a unit of work goes to an idle worker, and a new goroutine starts
// only when none is idle. A busy worker is never waited for, so a stalled
// handler blocks only its own frame; at most maxParkedWorkers stay parked,
// and Close releases them.
type MuxServer struct {
	lis     net.Listener
	handler MuxHandler

	idle   chan muxTask  // unbuffered: a send succeeds only into a parked worker
	quit   chan struct{} // closed by Close, which releases parked workers
	parked atomic.Int32

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// maxParkedWorkers bounds the workers kept idle between frames. A fleet tick
// keeps one frame and its batch helpers busy per connection; the bound only
// stops a burst of single-call frames from leaving as many goroutines behind.
const maxParkedWorkers = 64

// muxTask is one unit of a worker's work: a request frame of a session
// (sess, req, and the pooled buffer in backing req.Body), or worker w's share
// of a batch frame's items.
type muxTask struct {
	sess  *muxSession
	req   frame
	in    *[]byte
	batch *batchScratch
	w     int
}

// NewMuxServer wraps a listener. Call Serve to start accepting.
func NewMuxServer(lis net.Listener, handler MuxHandler) *MuxServer {
	return &MuxServer{
		lis:     lis,
		handler: handler,
		idle:    make(chan muxTask),
		quit:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
	}
}

// dispatch hands a task to a parked worker, or starts one when none is idle.
func (s *MuxServer) dispatch(t muxTask) {
	select {
	case s.idle <- t:
	default:
		go s.worker(t)
	}
}

// worker runs its task, then parks for the next one until the server closes
// or enough workers are parked already.
func (s *MuxServer) worker(t muxTask) {
	for {
		if t.batch != nil {
			s.work(t.batch, t.w)
			t.batch.wg.Done()
		} else {
			t.sess.serve(t.req, t.in)
		}
		t = muxTask{} // hold nothing of the finished task while parked
		if s.parked.Add(1) > maxParkedWorkers {
			s.parked.Add(-1)
			return
		}
		select {
		case t = <-s.idle:
			s.parked.Add(-1)
		case <-s.quit:
			s.parked.Add(-1)
			return
		}
	}
}

// Addr returns the listener address.
func (s *MuxServer) Addr() string { return s.lis.Addr().String() }

// Serve accepts connections until the server is closed. It blocks; run it in
// a goroutine and call Close to stop.
func (s *MuxServer) Serve() error {
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

func (s *MuxServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	sess := &muxSession{srv: s, conn: conn}
	br := bufio.NewReader(conn)
	for {
		in := getBuf()
		var err error
		if *in, err = readFrame(br, *in); err != nil {
			putBuf(in)
			return // EOF, a broken connection or a bad frame ends the session
		}
		req, err := parseFrame(*in)
		if err != nil {
			putBuf(in)
			return
		}
		s.dispatch(muxTask{sess: sess, req: req, in: in})
	}
}

// muxSession is one accepted connection: the write lock that keeps the
// response frames of concurrently served requests whole.
type muxSession struct {
	srv     *MuxServer
	conn    net.Conn
	writeMu sync.Mutex
}

// serve handles one request and writes its response. in backs req.Body and
// goes back to the pool once the handler is done with it.
func (ss *muxSession) serve(req frame, in *[]byte) {
	out := getBuf()
	defer putBuf(out)
	var err error
	if req.Kind == KindBatch {
		*out, err = ss.srv.serveBatch(*out, req)
	} else {
		*out, err = appendReply(*out, req.ID, req.Target, req.Kind, req.Body, ss.srv.handler)
	}
	putBuf(in)
	if err == nil {
		ss.writeMu.Lock()
		_, err = ss.conn.Write(*out)
		ss.writeMu.Unlock()
	}
	if err != nil {
		ss.conn.Close() // the reader loop notices and ends the session
	}
}

// batchScratch is what serving one batch frame needs besides the frame
// itself: the parsed items, one reply buffer per worker, and where in those
// buffers each item's reply landed. Frames recycle it through a pool, so a
// batch costs no per-frame slices; nothing in it outlives serveBatch.
type batchScratch struct {
	items []batchItem
	segs  []batchSeg // by item
	bufs  []*[]byte  // by worker, pooled
	next  atomic.Int64
	wg    sync.WaitGroup
}

// batchSeg locates one item's encoded reply: bytes [off, end) of worker w's
// buffer.
type batchSeg struct{ w, off, end int }

// maxPooledBatch keeps the scratch of an outsized batch out of the pool.
const maxPooledBatch = 1 << 14

var batchScratches = sync.Pool{New: func() any { return new(batchScratch) }}

func (sc *batchScratch) release() {
	for _, b := range sc.bufs {
		putBuf(b)
	}
	if cap(sc.items) > maxPooledBatch {
		return
	}
	clear(sc.items) // bodies alias the request frame, which is recycled too
	sc.items, sc.bufs = sc.items[:0], sc.bufs[:0]
	batchScratches.Put(sc)
}

// serveBatch runs the items of one batch frame through the handler on
// min(GOMAXPROCS, len(items)) workers — this goroutine is one of them, the
// others are dispatched a share each — that pull item indices from a shared
// counter, and appends the reply frame, replies in item order, to dst. Each
// worker's handlers append their replies to that worker's own buffer; the
// buffers are stitched into the frame once every item is done. A goroutine
// per item cost more than the handlers themselves at fleet size: a third of a
// 500-agent tick was spawning a thousand of them a slot and growing each
// one's stack.
func (s *MuxServer) serveBatch(dst []byte, req frame) ([]byte, error) {
	sc := batchScratches.Get().(*batchScratch)
	defer sc.release()
	var err error
	if sc.items, err = parseBatchItems(req.Body, sc.items); err != nil {
		return appendErrorFrame(dst, req.ID, req.Target, req.Kind, fmt.Errorf("batch decode: %w", err))
	}
	items := sc.items
	if cap(sc.segs) < len(items) {
		sc.segs = make([]batchSeg, len(items))
	}
	sc.segs = sc.segs[:len(items)]
	workers := max(1, min(runtime.GOMAXPROCS(0), len(items)))
	for w := 0; w < workers; w++ {
		sc.bufs = append(sc.bufs, getBuf())
	}
	sc.next.Store(0)
	sc.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		s.dispatch(muxTask{batch: sc, w: w})
	}
	s.work(sc, 0)
	sc.wg.Wait()

	start := len(dst)
	dst = appendFrameHeader(dst, req.ID, req.Target, req.Kind, "")
	dst = binary.AppendUvarint(dst, uint64(len(items)))
	for _, sg := range sc.segs {
		dst = append(dst, (*sc.bufs[sg.w])[sg.off:sg.end]...)
	}
	if dst, err = finishFrame(dst, start); err != nil {
		return appendErrorFrame(dst[:start], req.ID, req.Target, req.Kind, err)
	}
	return dst, nil
}

// work is worker w's share of a batch: it takes item indices from the shared
// counter until none is left, appending each reply to the worker's buffer.
func (s *MuxServer) work(sc *batchScratch, w int) {
	buf, items := sc.bufs[w], sc.items
	for i := int(sc.next.Add(1)) - 1; i < len(items); i = int(sc.next.Add(1)) - 1 {
		off := len(*buf)
		*buf = appendBatchReply(*buf, items[i], s.handler)
		sc.segs[i] = batchSeg{w, off, len(*buf)}
	}
}

// appendBatchReply runs one batch item through the handler and appends its
// reply — empty err, then the body the handler appends behind a u32 length —
// to dst. A handler error, or a body over the frame cap, rewinds to where the
// item began: the item contributes the error string and an empty body.
func appendBatchReply(dst []byte, it batchItem, h MuxHandler) []byte {
	mark := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0) // empty err, body length
	out, err := h(dst, it.Target, it.Kind, it.Body)
	if err == nil {
		n := len(out) - mark - 5
		if n <= maxFrame {
			binary.LittleEndian.PutUint32(out[mark+1:], uint32(n))
			return out
		}
		err = fmt.Errorf("%w: batch item of %d bytes", ErrFrameTooLarge, n)
	}
	dst = appendString(dst[:mark], err.Error())
	return append(dst, 0, 0, 0, 0) // empty body
}

// Close stops accepting, closes open connections and releases the parked
// workers. Like net/http's Close, it does not wait for in-flight handlers: a
// wedged handler must not wedge shutdown, and its eventual response write
// fails harmlessly on the closed connection, after which its worker exits. It
// does wait for the per-connection reader goroutines.
func (s *MuxServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.quit)
	err := s.lis.Close()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// MuxClient is a pipelining RPC client: calls from any number of goroutines
// share one connection, with responses routed back by frame ID. Per-call
// timeouts are enforced with timers rather than connection deadlines, because
// a deadline would abort every in-flight call, not the late one.
type MuxClient struct {
	conn    net.Conn
	timeout time.Duration

	writeMu sync.Mutex // one Write per frame, never interleaved

	mu      sync.Mutex
	pending map[uint64]chan muxReply
	nextID  uint64
	closed  bool
	readErr error
	done    chan struct{} // closed when the read loop exits
}

// DialMux connects a pipelining client to a MuxServer. timeout bounds the
// dial and each call; zero means 10 seconds.
func DialMux(addr string, timeout time.Duration) (*MuxClient, error) {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	m := &MuxClient{
		conn:    conn,
		timeout: timeout,
		pending: make(map[uint64]chan muxReply),
		done:    make(chan struct{}),
	}
	go m.readLoop()
	return m, nil
}

// muxReply is what the read loop hands a waiting caller: the parsed response
// and the pooled buffer backing its body, which the caller releases.
type muxReply struct {
	frame
	buf *[]byte
}

// replyChans and callTimers recycle the two per-call objects every round
// trip needs. A channel goes back only once nothing else can send on it (see
// await); a timer only stopped and drained.
var (
	replyChans = sync.Pool{New: func() any { return make(chan muxReply, 1) }}
	callTimers = sync.Pool{New: func() any {
		t := time.NewTimer(time.Hour)
		t.Stop()
		return t
	}}
)

// readLoop routes response frames to their waiting callers until the
// connection dies, then fails every pending call.
func (m *MuxClient) readLoop() {
	br := bufio.NewReader(m.conn)
	for {
		buf := getBuf()
		var resp frame
		var err error
		if *buf, err = readFrame(br, *buf); err == nil {
			resp, err = parseFrame(*buf)
		}
		if err != nil {
			putBuf(buf)
			m.mu.Lock()
			if m.readErr == nil {
				m.readErr = fmt.Errorf("mux read: %w", err)
			}
			m.mu.Unlock()
			close(m.done)
			return
		}
		m.mu.Lock()
		ch, ok := m.pending[resp.ID]
		if ok {
			delete(m.pending, resp.ID)
		}
		m.mu.Unlock()
		if ok {
			ch <- muxReply{resp, buf} // buffered; never blocks the read loop
		} else {
			putBuf(buf) // the caller gave up; drop the late response
		}
	}
}

// CallTarget sends a request addressed to target and decodes the response
// into respBody (nil discards it). It honors ctx and the client timeout;
// an abandoned call's late response is dropped by the read loop.
func (m *MuxClient) CallTarget(ctx context.Context, target int, kind string, reqBody, respBody any) error {
	resp, err := m.roundTrip(ctx, target, kind, reqBody)
	if err != nil {
		return err
	}
	defer putBuf(resp.buf)
	if resp.Err != "" {
		return &RemoteError{Kind: kind, Message: resp.Err}
	}
	if respBody == nil {
		return nil
	}
	return Unmarshal(resp.Body, respBody)
}

// roundTrip frames one request, sends it, and waits for its response. All
// client calls — single and batched — funnel through send and await, so the
// poisoning, timeout, and abandonment rules are identical across both
// surfaces. On success the caller owns resp.buf and must release it with
// putBuf.
func (m *MuxClient) roundTrip(ctx context.Context, target int, kind string, body any) (muxReply, error) {
	c, err := m.send(target, kind, body)
	if err != nil {
		return muxReply{}, err
	}
	return m.await(ctx, c, target, kind)
}

// sentCall is a request on the wire: the frame id its reply carries, the
// channel the read loop delivers that reply on, and when the call times out.
type sentCall struct {
	id       uint64
	ch       chan muxReply
	deadline time.Time
}

// send frames one request, registers it and writes it. The call's timeout
// counts from here, however late its await starts.
func (m *MuxClient) send(target int, kind string, body any) (sentCall, error) {
	ch := replyChans.Get().(chan muxReply)
	m.mu.Lock()
	if m.closed || m.readErr != nil {
		err := m.readErr
		if m.closed {
			err = ErrClosed
		}
		m.mu.Unlock()
		replyChans.Put(ch)
		return sentCall{}, err
	}
	m.nextID++
	id := m.nextID
	m.pending[id] = ch
	m.mu.Unlock()

	out := getBuf()
	defer putBuf(out)
	var err error
	if *out, err = appendFrame(*out, id, target, kind, "", body); err != nil {
		m.abandon(id, ch) // nothing was written; the stream is intact
		return sentCall{}, unsentError{fmt.Errorf("encode %s for target %d: %w", kind, target, err)}
	}
	m.writeMu.Lock()
	// Bound the write alone: a per-connection read deadline would abort
	// every pipelined call in flight, not just a stalled one.
	deadline := time.Now().Add(m.timeout)
	m.conn.SetWriteDeadline(deadline)
	_, err = m.conn.Write(*out)
	m.writeMu.Unlock()
	if err != nil {
		// A partial write leaves the peer mid-frame: everything sent after it
		// would be read as the rest of this frame. Poison the whole client
		// rather than letting the next call emit garbage.
		m.poison(fmt.Errorf("%w: send %s to target %d: %v", ErrClientPoisoned, kind, target, err))
		m.abandon(id, ch)
		return sentCall{}, fmt.Errorf("send %s to target %d: %w", kind, target, err)
	}
	return sentCall{id: id, ch: ch, deadline: deadline}, nil
}

// await waits for a sent call's response until its deadline, ctx, or the
// connection's end, whichever comes first. A reply the read loop has already
// taken off the pending table is returned even when the wait gave up at the
// same moment: it arrived in time.
func (m *MuxClient) await(ctx context.Context, c sentCall, target int, kind string) (muxReply, error) {
	timer := callTimers.Get().(*time.Timer)
	timer.Reset(time.Until(c.deadline))
	defer func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		callTimers.Put(timer)
	}()
	var ctxDone <-chan struct{}
	if ctx != nil {
		ctxDone = ctx.Done()
	}
	select {
	case resp := <-c.ch:
		replyChans.Put(c.ch) // the read loop's one send on it is behind us
		return resp, nil
	case <-ctxDone:
		if !m.abandon(c.id, c.ch) {
			return c.delivered(), nil
		}
		return muxReply{}, ctx.Err()
	case <-timer.C:
		if !m.abandon(c.id, c.ch) {
			return c.delivered(), nil
		}
		return muxReply{}, fmt.Errorf("target %d %s: %w", target, kind, ErrCallTimeout)
	case <-m.done:
		if !m.abandon(c.id, c.ch) {
			return c.delivered(), nil
		}
		m.mu.Lock()
		err := m.readErr
		m.mu.Unlock()
		return muxReply{}, err
	}
}

// delivered receives the reply of a call the read loop took off the pending
// table: its send is on the way or already buffered.
func (c sentCall) delivered() muxReply {
	resp := <-c.ch
	replyChans.Put(c.ch)
	return resp
}

// poison marks the client's stream as unusable and closes the connection so
// the read loop exits and fails every pending and future call. The first
// error recorded wins; later failures keep it.
func (m *MuxClient) poison(err error) {
	m.mu.Lock()
	if m.readErr == nil {
		m.readErr = err
	}
	m.mu.Unlock()
	m.conn.Close()
}

// BatchCall is one request in a MuxClient.CallBatch: the target endpoint and
// kind, the request to marshal, an optional response destination, and the
// per-call result. Transport-level failures fail the whole batch; per-call
// handler errors land in Err.
type BatchCall struct {
	Target int
	Kind   string
	Req    any
	Resp   any
	Err    error
}

// CallBatch sends every call in one frame and decodes the replies in order:
// StartBatch, then Wait. The server runs the items on a bounded set of
// workers (see MuxServer), so a batch over N targets costs one round trip,
// one frame encode and N handler runs spread over the server's cores, not N
// round trips. A nil return means the batch itself was delivered and
// answered; inspect each call's Err for per-target outcomes.
func (m *MuxClient) CallBatch(ctx context.Context, calls []BatchCall) error {
	b, err := m.StartBatch(calls)
	if err != nil {
		return err
	}
	return b.Wait(ctx, calls)
}

// Batch is a batch frame on the wire, sent by StartBatch and answered by
// Wait. A caller holding several clients sends every batch before awaiting
// any, so the wires' round trips overlap without a goroutine per wire.
type Batch struct {
	m    *MuxClient // nil for an empty batch
	call sentCall
}

// StartBatch encodes every call into one frame and sends it. The batch's
// timeout counts from here. Call Wait with the same calls to decode the
// replies into their Resp destinations; a batch never waited for keeps its
// pending entry until its reply arrives.
func (m *MuxClient) StartBatch(calls []BatchCall) (Batch, error) {
	if len(calls) == 0 {
		return Batch{}, nil
	}
	body := getBuf()
	defer putBuf(body)
	*body = binary.AppendUvarint(*body, uint64(len(calls)))
	for i := range calls {
		*body = appendInt(*body, calls[i].Target)
		*body = appendString(*body, calls[i].Kind)
		var err error
		if *body, err = appendNested(*body, calls[i].Req); err != nil {
			return Batch{}, fmt.Errorf("batch call %d (%s): %w", i, calls[i].Kind, err)
		}
	}
	c, err := m.send(-1, KindBatch, *body)
	if err != nil {
		return Batch{}, err
	}
	return Batch{m: m, call: c}, nil
}

// Wait awaits the batch's reply frame and decodes the replies, in order, into
// calls — the slice StartBatch sent. It honors ctx and the client timeout,
// counted from the send, so waiting on k batches one after another costs at
// most one timeout however many of them hang. An abandoned batch's late
// reply is dropped by the read loop.
func (b Batch) Wait(ctx context.Context, calls []BatchCall) error {
	if b.m == nil {
		return nil
	}
	resp, err := b.m.await(ctx, b.call, -1, KindBatch)
	if err != nil {
		return err
	}
	defer putBuf(resp.buf)
	if resp.Err != "" {
		return &RemoteError{Kind: KindBatch, Message: resp.Err}
	}
	n, err := checkBatchReplies(resp.Body)
	if err != nil {
		return err
	}
	if n != len(calls) {
		return fmt.Errorf("batch: %d replies for %d calls", n, len(calls))
	}
	d := decoder{b: resp.Body}
	d.count(minBatchReply)
	for i := range calls {
		errMsg, reply := d.view(), d.nested()
		switch {
		case len(errMsg) > 0:
			calls[i].Err = &RemoteError{Kind: calls[i].Kind, Message: string(errMsg)}
		case calls[i].Resp == nil:
			calls[i].Err = nil
		default:
			calls[i].Err = Unmarshal(reply, calls[i].Resp)
		}
	}
	return nil
}

// ErrCallTimeout marks a pipelined call that outlived the client timeout.
var ErrCallTimeout = fmt.Errorf("transport: call timed out")

// ErrClientPoisoned marks a MuxClient whose shared stream stopped mid-frame
// after a failed request write. The client closes itself; every later call
// fails fast with an error wrapping this one instead of emitting garbage.
var ErrClientPoisoned = fmt.Errorf("transport: mux client poisoned by failed write")

// abandon forgets a pending call so its late response is dropped, and
// reports whether the call was still pending. Only then is the reply channel
// recycled: otherwise the read loop already holds it and its send may yet
// land.
func (m *MuxClient) abandon(id uint64, ch chan muxReply) bool {
	m.mu.Lock()
	_, pending := m.pending[id]
	delete(m.pending, id)
	m.mu.Unlock()
	if pending {
		replyChans.Put(ch)
	}
	return pending
}

// Close shuts down the connection; pending calls fail promptly.
func (m *MuxClient) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	err := m.conn.Close()
	<-m.done // read loop exit fails the stragglers
	return err
}

// MuxConn binds a MuxClient to one target, satisfying the controller's
// per-agent connection surfaces (Call and CallContext).
type MuxConn struct {
	client *MuxClient
	target int
}

// Agent returns the per-target connection for one multiplexed endpoint.
func (m *MuxClient) Agent(target int) *MuxConn {
	return &MuxConn{client: m, target: target}
}

// Client returns the multiplexed client carrying this connection, so callers
// holding many MuxConns can group them by wire and batch their calls.
func (c *MuxConn) Client() *MuxClient { return c.client }

// Target returns the endpoint index this connection is bound to.
func (c *MuxConn) Target() int { return c.target }

// Call implements the synchronous connection surface.
func (c *MuxConn) Call(kind string, reqBody, respBody any) error {
	return c.client.CallTarget(context.Background(), c.target, kind, reqBody, respBody)
}

// CallContext is Call honoring a context.
func (c *MuxConn) CallContext(ctx context.Context, kind string, reqBody, respBody any) error {
	return c.client.CallTarget(ctx, c.target, kind, reqBody, respBody)
}
