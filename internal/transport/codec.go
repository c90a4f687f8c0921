// Wire format v1, message bodies. Every body is one tag byte naming the
// message type followed by its fields in declaration order: ints as zig-zag
// varints, Ping.Nonce as a plain uvarint, floats as 8 little-endian bytes of
// math.Float64bits (so -0 and NaN payloads survive), slices as a uvarint
// element count followed by the elements. A decoder checks every count
// against the bytes actually present before allocating for it, rejects
// trailing bytes, and overwrites every field of the destination; a
// zero-length slice decodes to nil.

package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
)

// ErrUnknownMessage marks a value Marshal or Unmarshal has no wire layout
// for: anything other than the seven control-loop messages (by value or by
// pointer) and raw []byte.
var ErrUnknownMessage = errors.New("transport: unknown message type")

// ErrMalformedWire marks bytes that do not parse as the frame or body they
// claim to be: a wrong tag, a truncated field, a count larger than the bytes
// present, or trailing bytes.
var ErrMalformedWire = errors.New("transport: malformed wire data")

// Body tags. Zero is reserved so an all-zero buffer never parses.
const (
	tagStateRequest byte = 1 + iota
	tagStateReport
	tagAllocate
	tagAllocateAck
	tagPing
	tagRestoreRequest
	tagRestoreAck
)

// Marshal encodes a message body in wire format v1. Messages are accepted by
// value or by pointer; a []byte is taken as an already-encoded body and
// returned as is. Any other type is ErrUnknownMessage.
func Marshal(v any) ([]byte, error) {
	if raw, ok := v.([]byte); ok {
		return raw, nil
	}
	// Encode into a pooled buffer and copy out at the exact size: one
	// allocation whatever the message's length.
	buf := getBuf()
	defer putBuf(buf)
	var err error
	if *buf, err = appendBody(*buf, v); err != nil {
		return nil, err
	}
	return append([]byte(nil), *buf...), nil
}

// Append is Marshal into the caller's buffer: it appends the encoding of v to
// dst and returns the extended slice. It is how a Handler writes its reply
// into the frame it was handed; a message passed by pointer costs no
// allocation. On an unknown type dst comes back unchanged with the error.
func Append(dst []byte, v any) ([]byte, error) { return appendBody(dst, v) }

// unknownMessage builds the ErrUnknownMessage for v. reflect.TypeOf does not
// let v escape, so message values passed by pointer stay on the caller's
// stack through Marshal and Unmarshal.
func unknownMessage(v any) error {
	return fmt.Errorf("%w: %v", ErrUnknownMessage, reflect.TypeOf(v))
}

// appendBody appends the encoding of v to dst. On an unknown type dst comes
// back unchanged with the error, so a caller that has already written a
// frame header can rewrite it as an error reply.
func appendBody(dst []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case []byte:
		return append(dst, m...), nil
	case StateRequest:
		return appendStateRequest(dst, &m), nil
	case *StateRequest:
		return appendStateRequest(dst, m), nil
	case StateReport:
		return appendStateReport(dst, &m), nil
	case *StateReport:
		return appendStateReport(dst, m), nil
	case Allocate:
		return appendAllocate(dst, &m), nil
	case *Allocate:
		return appendAllocate(dst, m), nil
	case AllocateAck:
		return appendAllocateAck(dst, &m), nil
	case *AllocateAck:
		return appendAllocateAck(dst, m), nil
	case Ping:
		return appendPing(dst, &m), nil
	case *Ping:
		return appendPing(dst, m), nil
	case RestoreRequest:
		return appendRestoreRequest(dst, &m), nil
	case *RestoreRequest:
		return appendRestoreRequest(dst, m), nil
	case RestoreAck:
		return appendRestoreAck(dst, &m), nil
	case *RestoreAck:
		return appendRestoreAck(dst, m), nil
	}
	return dst, unknownMessage(v)
}

func appendStateRequest(b []byte, m *StateRequest) []byte {
	return appendInt(append(b, tagStateRequest), m.Slot)
}

func appendStateReport(b []byte, m *StateReport) []byte {
	b = appendInt(append(b, tagStateReport), m.Slot)
	b = appendInt(b, m.DataCenter)
	b = appendFloats(b, m.Avail)
	b = appendFloat(b, m.Price)
	return appendFloats(b, m.QueueLens)
}

func appendAllocate(b []byte, m *Allocate) []byte {
	b = appendInt(append(b, tagAllocate), m.Slot)
	b = binary.AppendUvarint(b, uint64(len(m.Route)))
	for _, r := range m.Route {
		b = appendInt(b, r)
	}
	b = appendFloats(b, m.Process)
	return appendFloats(b, m.Busy)
}

func appendAllocateAck(b []byte, m *AllocateAck) []byte {
	b = appendInt(append(b, tagAllocateAck), m.Slot)
	b = appendFloats(b, m.Processed)
	b = appendFloats(b, m.DelaySum)
	b = appendFloat(b, m.Energy)
	return appendFloat(b, m.Work)
}

func appendPing(b []byte, m *Ping) []byte {
	b = binary.AppendUvarint(append(b, tagPing), m.Nonce)
	return appendInt(b, m.Slot)
}

func appendRestoreRequest(b []byte, m *RestoreRequest) []byte {
	b = appendInt(append(b, tagRestoreRequest), m.Slot)
	b = binary.AppendUvarint(b, uint64(len(m.Snapshot)))
	return append(b, m.Snapshot...)
}

func appendRestoreAck(b []byte, m *RestoreAck) []byte {
	b = appendInt(append(b, tagRestoreAck), m.Slot)
	return appendFloats(b, m.QueueLens)
}

func appendInt(b []byte, v int) []byte { return binary.AppendVarint(b, int64(v)) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendFloats(b []byte, fs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(fs)))
	for _, f := range fs {
		b = appendFloat(b, f)
	}
	return b
}

// Unmarshal decodes a wire-format-v1 body into the message v points to,
// overwriting every field (slices reuse the destination's capacity when it
// suffices, as gob did). A *[]byte receives a copy of the raw body. Errors
// wrap ErrMalformedWire, or ErrUnknownMessage for any other destination.
func Unmarshal(data []byte, v any) error {
	d := decoder{b: data}
	switch m := v.(type) {
	case *[]byte:
		*m = append((*m)[:0], data...)
		return nil
	case *StateRequest:
		d.tag(tagStateRequest)
		m.Slot = d.int()
	case *StateReport:
		d.tag(tagStateReport)
		m.Slot = d.int()
		m.DataCenter = d.int()
		m.Avail = d.floats(m.Avail)
		m.Price = d.float()
		m.QueueLens = d.floats(m.QueueLens)
	case *Allocate:
		d.tag(tagAllocate)
		m.Slot = d.int()
		m.Route = d.ints(m.Route)
		m.Process = d.floats(m.Process)
		m.Busy = d.floats(m.Busy)
	case *AllocateAck:
		d.tag(tagAllocateAck)
		m.Slot = d.int()
		m.Processed = d.floats(m.Processed)
		m.DelaySum = d.floats(m.DelaySum)
		m.Energy = d.float()
		m.Work = d.float()
	case *Ping:
		d.tag(tagPing)
		m.Nonce = d.uint()
		m.Slot = d.int()
	case *RestoreRequest:
		d.tag(tagRestoreRequest)
		m.Slot = d.int()
		m.Snapshot = d.bytes(m.Snapshot)
	case *RestoreAck:
		d.tag(tagRestoreAck)
		m.Slot = d.int()
		m.QueueLens = d.floats(m.QueueLens)
	default:
		return unknownMessage(v)
	}
	// reflect.TypeOf, unlike %T, does not make v escape.
	if d.bad {
		return fmt.Errorf("%w: body for %v truncated or corrupt at byte %d of %d", ErrMalformedWire, reflect.TypeOf(v), d.off, len(data))
	}
	if d.off != len(data) {
		return fmt.Errorf("%w: %d trailing bytes after body for %v", ErrMalformedWire, len(data)-d.off, reflect.TypeOf(v))
	}
	return nil
}

// decoder is a cursor over one body or frame with a sticky failure flag:
// after the first short read every accessor returns zero, so callers decode
// a whole message and test bad once.
type decoder struct {
	b   []byte
	off int
	bad bool
}

func (d *decoder) rest() int { return len(d.b) - d.off }

func (d *decoder) byte() byte {
	if d.bad || d.rest() < 1 {
		d.bad = true
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

func (d *decoder) tag(want byte) {
	if d.byte() != want {
		d.bad = true
	}
}

func (d *decoder) uint() uint64 {
	if d.bad {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) int() int {
	if d.bad {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 || int64(int(v)) != v {
		d.bad = true
		return 0
	}
	d.off += n
	return int(v)
}

func (d *decoder) float() float64 {
	if d.bad || d.rest() < 8 {
		d.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return math.Float64frombits(v)
}

// count reads an element count and checks it against the bytes left, given
// the smallest encoding of one element, so the caller never sizes an
// allocation from an unverified prefix.
func (d *decoder) count(minElem int) int {
	n := d.uint()
	if d.bad || n > uint64(d.rest()/minElem) {
		d.bad = true
		return 0
	}
	return int(n)
}

func (d *decoder) floats(dst []float64) []float64 {
	n := d.count(8)
	if n == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		d.off += 8
	}
	return dst
}

func (d *decoder) ints(dst []int) []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = d.int()
	}
	if d.bad {
		return nil
	}
	return dst
}

// take returns the next n bytes without copying them; the caller has
// checked n against rest.
func (d *decoder) take(n int) []byte {
	v := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return v
}

// view returns the next uvarint-length-prefixed byte string without copying
// it.
func (d *decoder) view() []byte { return d.take(d.count(1)) }

func (d *decoder) bytes(dst []byte) []byte {
	v := d.view()
	if len(v) == 0 {
		return nil
	}
	return append(dst[:0], v...)
}
