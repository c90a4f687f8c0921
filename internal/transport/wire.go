// Wire format v1, framing. Every message on a connection — request or
// response, single-agent or multiplexed — is one frame:
//
//	u32 len | version | id | target | kind | err | body
//
// len is little-endian and counts the bytes after itself; version is one
// byte; id is a uvarint, target a zig-zag varint, kind and err are
// uvarint-length-prefixed strings, and body is the rest of the frame. A
// batch frame (kind KindBatch) carries a body of
//
//	count | count x (target | kind | u32 len | body)      request
//	count | count x (err | u32 len | body)                reply
//
// with count a uvarint. Senders build a whole frame in a pooled buffer and
// hand it to the connection in a single Write; receivers read through a
// bufio.Reader into a pooled buffer that grows only as bytes arrive.

package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

const (
	// wireVersion is the only frame version this build speaks. A peer that
	// sends any other value gets its session closed (ErrWireVersion): the
	// layout after the version byte is unknowable.
	wireVersion byte = 1

	// maxFrame caps the declared length of a frame, in both directions. The
	// largest legitimate payload is a RestoreRequest snapshot — a few bytes
	// per queued cohort — so 64 MiB is far beyond any real message while
	// still bounding what a hostile length prefix can make a peer buffer.
	maxFrame = 64 << 20

	// minFrame is the smallest well-formed payload: version, id, target and
	// two empty strings, one byte each.
	minFrame = 5

	// readChunk bounds how far the receive buffer grows ahead of the bytes
	// that have actually arrived: its capacity never exceeds twice what was
	// received plus this.
	readChunk = 64 << 10

	// maxPooledBuf keeps oversized buffers (a large batch, a snapshot) out of
	// the pool so it never pins more than small frames' worth of memory.
	maxPooledBuf = 64 << 10
)

// ErrWireVersion marks a frame whose version byte this build does not speak.
var ErrWireVersion = errors.New("transport: unsupported wire version")

// ErrFrameTooLarge marks a frame whose length exceeds maxFrame, on receipt
// (before anything is allocated for it) or on send (before anything is
// written).
var ErrFrameTooLarge = errors.New("transport: frame exceeds size cap")

// frame is the decoded envelope. Body aliases the buffer the frame was read
// into and is valid only until that buffer is released.
type frame struct {
	ID     uint64
	Target int
	Kind   string
	Err    string
	Body   []byte
}

// bufPool recycles frame buffers across calls and connections. It holds
// *[]byte so Put does not allocate.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// appendFrame appends one complete frame to dst. body goes through
// appendBody, so it may be a message or a pre-encoded []byte. On failure dst
// comes back at its original length.
func appendFrame(dst []byte, id uint64, target int, kind, errMsg string, body any) ([]byte, error) {
	start := len(dst)
	out, err := appendBody(appendFrameHeader(dst, id, target, kind, errMsg), body)
	if err == nil {
		out, err = finishFrame(out, start)
	}
	if err != nil {
		return dst[:start], err
	}
	return out, nil
}

// appendFrameHeader opens a frame: a placeholder length prefix and everything
// that precedes the body. The body is appended behind it and finishFrame
// closes the frame.
func appendFrameHeader(dst []byte, id uint64, target int, kind, errMsg string) []byte {
	dst = append(dst, 0, 0, 0, 0, wireVersion)
	dst = binary.AppendUvarint(dst, id)
	dst = appendInt(dst, target)
	dst = appendString(dst, kind)
	return appendString(dst, errMsg)
}

// finishFrame closes the frame opened at dst[start] by writing its length
// prefix, or refuses it when it exceeds the cap.
func finishFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - 4
	if n > maxFrame {
		return dst, fmt.Errorf("%w: %d bytes, cap %d", ErrFrameTooLarge, n, maxFrame)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// readFrame reads one frame's payload (everything after the length prefix)
// into buf, reusing its capacity. The declared length and the version byte
// are checked before any payload byte is buffered, and the buffer grows at
// most readChunk ahead of the bytes received, so a hostile prefix cannot
// size an allocation.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	head, err := br.Peek(5)
	if err != nil {
		if err == io.EOF && len(head) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return buf, err
	}
	n := int(binary.LittleEndian.Uint32(head))
	switch {
	case n > maxFrame:
		return buf, fmt.Errorf("%w: peer declared %d bytes, cap %d", ErrFrameTooLarge, n, maxFrame)
	case n < minFrame:
		return buf, fmt.Errorf("%w: frame of %d bytes", ErrMalformedWire, n)
	case head[4] != wireVersion:
		return buf, fmt.Errorf("%w: peer speaks %d, this build speaks %d", ErrWireVersion, head[4], wireVersion)
	}
	br.Discard(4) // cannot fail: Peek buffered these bytes
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(n, 2*len(buf)+readChunk))
			copy(grown, buf)
			buf = grown
		}
		step := min(n, cap(buf)) - len(buf)
		got, err := io.ReadFull(br, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, err
		}
	}
	return buf, nil
}

// parseFrame decodes a payload read by readFrame. The frame's Body aliases
// payload; its strings are copies (the known kinds are interned, so the
// common case copies nothing).
func parseFrame(payload []byte) (frame, error) {
	d := decoder{b: payload, off: 1} // readFrame checked the version byte
	var f frame
	f.ID = d.uint()
	f.Target = d.int()
	f.Kind = internKind(d.view())
	f.Err = string(d.view())
	if d.bad {
		return frame{}, fmt.Errorf("%w: frame header truncated or corrupt", ErrMalformedWire)
	}
	f.Body = payload[d.off:]
	return f, nil
}

// internKind returns the protocol's own constant for a known kind, so only
// kinds the protocol does not define cost a string allocation.
func internKind(b []byte) string {
	switch string(b) {
	case KindState:
		return KindState
	case KindAllocate:
		return KindAllocate
	case KindPing:
		return KindPing
	case KindRestore:
		return KindRestore
	case KindBatch:
		return KindBatch
	}
	return string(b)
}

// batchItem is one request inside a batch frame. Its Body aliases the frame
// it was parsed from.
type batchItem struct {
	Target int
	Kind   string
	Body   []byte
}

// appendNested appends body behind a u32 length prefix.
func appendNested(dst []byte, body any) ([]byte, error) {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst, err := appendBody(dst, body)
	if err != nil {
		return dst[:at], err
	}
	n := len(dst) - at - 4
	if n > maxFrame {
		return dst[:at], fmt.Errorf("%w: batch item of %d bytes", ErrFrameTooLarge, n)
	}
	binary.LittleEndian.PutUint32(dst[at:], uint32(n))
	return dst, nil
}

// nested reads a u32-length-prefixed byte string without copying it.
func (d *decoder) nested() []byte {
	if d.bad || d.rest() < 4 {
		d.bad = true
		return nil
	}
	n := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	if uint64(n) > uint64(d.rest()) {
		d.bad = true
		return nil
	}
	return d.take(int(n))
}

// The smallest batch item is target, empty kind and u32 length; the smallest
// reply is empty err and u32 length. decoder.count holds a claimed item count
// to what the remaining bytes could hold at those sizes.
const (
	minBatchItem  = 6
	minBatchReply = 5
)

// parseBatchItems decodes a batch request body into items, reusing its
// capacity: the server keeps the slice in its pooled batch scratch rather
// than making one per frame.
func parseBatchItems(body []byte, items []batchItem) ([]batchItem, error) {
	d := decoder{b: body}
	n := d.count(minBatchItem)
	if cap(items) < n {
		items = make([]batchItem, n)
	}
	items = items[:n]
	for i := range items {
		items[i] = batchItem{Target: d.int(), Kind: internKind(d.view()), Body: d.nested()}
	}
	if d.bad || d.off != len(body) {
		return items[:0], fmt.Errorf("%w: batch request of %d bytes", ErrMalformedWire, len(body))
	}
	return items, nil
}

// checkBatchReplies walks a whole batch reply body and returns its reply
// count. A body that passes can be walked again with decoder.view and
// decoder.nested without a further check, which is how CallBatch reads the
// replies: in place, with no per-frame slice of them.
func checkBatchReplies(body []byte) (int, error) {
	d := decoder{b: body}
	n := d.count(minBatchReply)
	for i := 0; i < n; i++ {
		d.view()
		d.nested()
	}
	if d.bad || d.off != len(body) {
		return 0, fmt.Errorf("%w: batch reply of %d bytes", ErrMalformedWire, len(body))
	}
	return n, nil
}
