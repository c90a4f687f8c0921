package transport

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// Backoff bounds for the retry loop: attempt n waits baseBackoff * 2^(n-1),
// capped at maxBackoff, before redialing. Without this, a dead agent turns
// the retry loop into a tight spin of connection attempts.
const (
	baseBackoff = 50 * time.Millisecond
	maxBackoff  = 2 * time.Second
)

// ReconnectClient wraps DialMux with lazy connection establishment and
// bounded-retry reconnection: if a call fails because the connection broke
// (agent restart, transient network fault), the client redials and replays
// the request. It speaks to one agent per address, so every call goes to
// target 0, which a single-agent server ignores. Because the control-loop
// requests are idempotent snapshots and slot-tagged commands, replay is safe:
// an agent that already applied an allocation for a slot would only be asked
// again if its reply was lost, and the controller aborts the run on a genuine
// remote error rather than retrying it.
type ReconnectClient struct {
	addr    string
	timeout time.Duration
	retries int
	// backoff is the first retry delay (doubled per attempt, capped at
	// maxBackoff); defaults to baseBackoff, overridable in tests.
	backoff time.Duration

	// jitterMu guards rng; retryDelay runs outside mu so a slow backoff
	// computation never extends the connection critical section.
	jitterMu sync.Mutex
	rng      *rand.Rand

	// mu guards the connection, not the calls on it: concurrent calls share
	// the mux client and each decides for itself whether it failed.
	mu     sync.Mutex
	client *MuxClient
	closed bool
}

// NewReconnectClient builds a client for addr that (re)connects on demand
// and retries a failed call up to retries times (default 2).
func NewReconnectClient(addr string, timeout time.Duration, retries int) *ReconnectClient {
	if retries <= 0 {
		retries = 2
	}
	// Seed the backoff jitter from the address so each client draws a
	// distinct but reproducible delay sequence: a fleet of agents restarted
	// together spreads its reconnect attempts instead of herding, and a test
	// re-running the same topology sees the same delays.
	h := fnv.New64a()
	h.Write([]byte(addr))
	return &ReconnectClient{
		addr:    addr,
		timeout: timeout,
		retries: retries,
		backoff: baseBackoff,
		rng:     rand.New(rand.NewSource(int64(h.Sum64()))),
	}
}

// SetJitterSeed reseeds the backoff jitter, pinning the exact delay sequence
// for deterministic tests.
func (r *ReconnectClient) SetJitterSeed(seed int64) {
	r.jitterMu.Lock()
	r.rng = rand.New(rand.NewSource(seed))
	r.jitterMu.Unlock()
}

// retryDelay returns how long to wait before the given retry attempt
// (attempt >= 1): capped exponential growth from the base delay, with equal
// jitter — the upper half of the window is drawn uniformly, so the delay
// lands in [d/2, d]. Jitter never exceeds the un-jittered cap, keeping every
// existing worst-case bound intact.
func (r *ReconnectClient) retryDelay(attempt int) time.Duration {
	d := r.backoff
	for i := 1; i < attempt && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	if d <= 1 {
		return d
	}
	half := d / 2
	r.jitterMu.Lock()
	j := time.Duration(r.rng.Int63n(int64(half) + 1))
	r.jitterMu.Unlock()
	return half + j
}

// sleepContext waits for d or until ctx is canceled, whichever comes first.
func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ensure returns a live client, dialing if necessary.
func (r *ReconnectClient) ensure() (*MuxClient, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	if r.client != nil {
		return r.client, nil
	}
	c, err := DialMux(r.addr, r.timeout)
	if err != nil {
		return nil, err
	}
	r.client = c
	return c, nil
}

// drop closes c and, if it is still the current connection, forgets it so the
// next call redials.
func (r *ReconnectClient) drop(c *MuxClient) {
	r.mu.Lock()
	if r.client == c {
		r.client = nil
	}
	r.mu.Unlock()
	c.Close()
}

// unsentError marks a request that failed before any byte of it was written
// — no wire layout, or a frame over the size cap — so the connection is
// intact and a replay would fail the same way.
type unsentError struct{ err error }

func (e unsentError) Error() string { return e.err.Error() }
func (e unsentError) Unwrap() error { return e.err }

// retriable reports whether a failed call is the connection's failure — worth
// a redial and a replay — rather than the request's or the caller's.
func retriable(ctx context.Context, err error) bool {
	var remote *RemoteError
	switch {
	case errors.As(err, &remote):
		return false // the agent saw the request and rejected it
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		return false // the caller gave up; the mux drops the late reply by id
	case errors.As(err, new(unsentError)):
		return false // never written: the stream is intact
	case errors.Is(err, ErrUnknownMessage):
		return false // a reply destination with no wire layout: a replay fails alike
	}
	return true
}

// Call sends a request, redialing and retrying on transport failures with
// capped exponential backoff between attempts. Remote handler errors
// (RemoteError) are not retried: the remote side saw the request and rejected
// it, so replaying cannot help. Nor is a request that could not be framed (no
// wire layout, ErrUnknownMessage, or over the size cap, ErrFrameTooLarge):
// nothing was written, and the connection is kept.
func (r *ReconnectClient) Call(kind string, reqBody, respBody any) error {
	return r.CallContext(context.Background(), kind, reqBody, respBody)
}

// CallContext is Call honoring a context: cancellation aborts the call at
// once, whether it is waiting out a backoff — an interrupted controller does
// not sit out the remaining delays of an unreachable agent — or for a reply.
// A call canceled in flight returns the context's error and keeps the
// connection: the reply, if it still comes, is dropped by its frame id. Only
// the dial is bounded by the client's timeout alone.
func (r *ReconnectClient) CallContext(ctx context.Context, kind string, reqBody, respBody any) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var lastErr error
	for attempt := 0; attempt <= r.retries; attempt++ {
		if attempt > 0 {
			if err := sleepContext(ctx, r.retryDelay(attempt)); err != nil {
				return fmt.Errorf("canceled after %d attempts (last error: %v): %w", attempt, lastErr, err)
			}
		} else if err := ctx.Err(); err != nil {
			return err
		}
		c, err := r.ensure()
		if errors.Is(err, ErrClosed) {
			return err
		}
		if err == nil {
			if err = c.CallTarget(ctx, 0, kind, reqBody, respBody); err == nil || !retriable(ctx, err) {
				return err
			}
			// Timed out, poisoned or hung up on: the next attempt redials.
			r.drop(c)
		}
		lastErr = err
	}
	return fmt.Errorf("after %d attempts: %w", r.retries+1, lastErr)
}

// DropConn severs the current connection without closing the client: the
// next call redials. It exists for fault injection — the chaos transport's
// kill fault uses it to model an agent-side connection reset — and is a no-op
// when no connection is live.
func (r *ReconnectClient) DropConn() {
	r.mu.Lock()
	c := r.client
	r.mu.Unlock()
	if c != nil {
		r.drop(c)
	}
}

// Close shuts the client down permanently.
func (r *ReconnectClient) Close() error {
	r.mu.Lock()
	r.closed = true
	c := r.client
	r.client = nil
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}
