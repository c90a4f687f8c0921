package transport

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// newMessages returns one fresh zero destination per wire message type.
func newMessages() []any {
	return []any{
		new(StateRequest), new(StateReport), new(Allocate), new(AllocateAck),
		new(Ping), new(RestoreRequest), new(RestoreAck),
	}
}

// codecSamples are real-shaped messages plus the values a float codec gets
// wrong first: negative zero, NaNs with payloads, infinities, extreme ints,
// and empty-but-non-nil slices (which must come back nil, as gob's did).
func codecSamples() []any {
	nanPayload := math.Float64frombits(0x7ff8_0000_dead_beef)
	signalling := math.Float64frombits(0xfff0_0000_0000_0001)
	return []any{
		StateRequest{Slot: 9},
		StateRequest{Slot: math.MinInt64},
		StateReport{Slot: 3, DataCenter: 499, Avail: []float64{120, 0}, Price: 0.042, QueueLens: []float64{1, 2, 3}},
		StateReport{Slot: -1, Avail: []float64{}, Price: math.Copysign(0, -1), QueueLens: []float64{nanPayload, signalling, math.Inf(-1)}},
		Allocate{Slot: 7, Route: []int{0, 4, 1}, Process: []float64{0.5, 2, 0}, Busy: []float64{17.25}},
		Allocate{Slot: math.MaxInt64, Route: []int{math.MinInt64, -1, math.MaxInt64}, Process: []float64{}, Busy: nil},
		AllocateAck{Slot: 7, Processed: []float64{1, 2, 3}, DelaySum: []float64{0, 4.5, 9}, Energy: 12.5, Work: 33},
		AllocateAck{Energy: nanPayload, Work: math.Copysign(0, -1)},
		Ping{Nonce: math.MaxUint64, Slot: 12},
		Ping{},
		RestoreRequest{Slot: 5, Snapshot: []byte("ledger bytes \x00\xff")},
		RestoreRequest{Snapshot: []byte{}},
		RestoreAck{Slot: 5, QueueLens: []float64{8, 0, 1}},
		RestoreAck{},
	}
}

// bitsEqual is reflect.DeepEqual with floats compared by bit pattern, so -0
// differs from 0 and a NaN equals only the same NaN; nil and empty slices
// differ, as in DeepEqual.
func bitsEqual(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Ptr:
		return bitsEqual(a.Elem(), b.Elem())
	}
	return a.Interface() == b.Interface()
}

// viaCodec and viaGob round-trip m (a message value or pointer) into a fresh
// destination of its type.
func viaCodec(t testing.TB, m any) any {
	t.Helper()
	data, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal(%T): %v", m, err)
	}
	dst := reflect.New(reflect.Indirect(reflect.ValueOf(m)).Type()).Interface()
	if err := Unmarshal(data, dst); err != nil {
		t.Fatalf("Unmarshal(Marshal(%+v)): %v", m, err)
	}
	return dst
}

func viaGob(t testing.TB, m any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatalf("gob encode %T: %v", m, err)
	}
	dst := reflect.New(reflect.Indirect(reflect.ValueOf(m)).Type()).Interface()
	if err := gob.NewDecoder(&buf).Decode(dst); err != nil {
		t.Fatalf("gob decode %T: %v", m, err)
	}
	return dst
}

// asGobSaw returns a copy of the message m points to with the one thing gob
// did not carry undone: gob omits struct fields that compare equal to zero,
// so a scalar -0 (Price, Energy, Work) arrived as +0. The v1 codec keeps the
// sign; no control-loop value is ever -0 (prices are positive, energy and
// work are sums from +0), so the traces cannot tell the two apart.
func asGobSaw(m any) reflect.Value {
	cp := reflect.New(reflect.TypeOf(m).Elem())
	cp.Elem().Set(reflect.ValueOf(m).Elem())
	for i := 0; i < cp.Elem().NumField(); i++ {
		if f := cp.Elem().Field(i); f.Kind() == reflect.Float64 && f.Float() == 0 {
			f.SetFloat(0)
		}
	}
	return cp
}

// TestCodecMatchesGob is the differential check behind the byte-identical
// golden traces: for every sample, what the v1 codec decodes is bit-for-bit
// what gob decoded before it — same nil-for-empty normalisation, same float
// bits, same extreme ints — by value and by pointer.
func TestCodecMatchesGob(t *testing.T) {
	for _, m := range codecSamples() {
		want := viaGob(t, m)
		if got := viaCodec(t, m); !bitsEqual(asGobSaw(got), reflect.ValueOf(want)) {
			t.Errorf("%T by value: codec %+v, gob %+v", m, got, want)
		}
		ptr := reflect.New(reflect.TypeOf(m))
		ptr.Elem().Set(reflect.ValueOf(m))
		got := viaCodec(t, ptr.Interface())
		if !bitsEqual(asGobSaw(got), reflect.ValueOf(want)) {
			t.Errorf("%T by pointer: codec %+v, gob %+v", m, got, want)
		}
		// Against the input itself the codec is exact once empty slices are
		// nil — which is what a second trip through it produces.
		if again := viaCodec(t, got); !bitsEqual(reflect.ValueOf(again), reflect.ValueOf(got)) {
			t.Errorf("%T: second round trip changed %+v to %+v", m, got, again)
		}
	}
}

// TestUnmarshalOverwritesEveryField decodes zero-valued messages into dirty
// destinations: nothing of the previous contents may survive (gob skipped
// absent fields; the v1 codec carries every field).
func TestUnmarshalOverwritesEveryField(t *testing.T) {
	dirty := []any{
		&StateRequest{Slot: 1},
		&StateReport{Slot: 1, DataCenter: 2, Avail: []float64{3}, Price: 4, QueueLens: []float64{5}},
		&Allocate{Slot: 1, Route: []int{2}, Process: []float64{3}, Busy: []float64{4}},
		&AllocateAck{Slot: 1, Processed: []float64{2}, DelaySum: []float64{3}, Energy: 4, Work: 5},
		&Ping{Nonce: 1, Slot: 2},
		&RestoreRequest{Slot: 1, Snapshot: []byte{2}},
		&RestoreAck{Slot: 1, QueueLens: []float64{2}},
	}
	for i, zero := range newMessages() {
		data, err := Marshal(zero)
		if err != nil {
			t.Fatal(err)
		}
		if err := Unmarshal(data, dirty[i]); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dirty[i], zero) {
			t.Errorf("%T: decoding a zero message left %+v", zero, dirty[i])
		}
	}
}

func TestMarshalUnknownAndRaw(t *testing.T) {
	for _, v := range []any{nil, 42, "state", struct{ Slot int }{1}, &frame{}, []float64{1}} {
		if _, err := Marshal(v); !errors.Is(err, ErrUnknownMessage) {
			t.Errorf("Marshal(%T) = %v, want ErrUnknownMessage", v, err)
		}
		if err := Unmarshal([]byte{tagPing, 0, 0}, v); !errors.Is(err, ErrUnknownMessage) {
			t.Errorf("Unmarshal into %T = %v, want ErrUnknownMessage", v, err)
		}
	}
	if err := Unmarshal([]byte{tagPing, 0, 0}, Ping{}); !errors.Is(err, ErrUnknownMessage) {
		t.Errorf("Unmarshal into a non-pointer = %v, want ErrUnknownMessage", err)
	}
	raw := []byte{9, 8, 7}
	out, err := Marshal(raw)
	if err != nil || !bytes.Equal(out, raw) {
		t.Errorf("Marshal([]byte) = %v, %v; want the bytes through", out, err)
	}
	var back []byte
	if err := Unmarshal(raw, &back); err != nil || !bytes.Equal(back, raw) {
		t.Errorf("Unmarshal into *[]byte = %v, %v", back, err)
	}
	back[0] = 0
	if raw[0] != 9 {
		t.Error("Unmarshal into *[]byte aliased its input")
	}
}

// allocatedBytes reports how much f allocated: the least of five runs, since
// TotalAlloc is process-wide and any other goroutine's allocation lands in
// the run it overlaps. Callers still compare against generous ceilings.
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestHostileLengthsAllocateNothing feeds every decoder a count or length far
// beyond the bytes present — the prefix a hostile or corrupted peer would use
// to make the receiver allocate — and checks the rejection is typed and that
// nothing was sized by the claim.
func TestHostileLengthsAllocateNothing(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x07} // uvarint 2^31-1
	bodies := map[string]struct {
		data []byte
		dst  any
	}{
		"report avail":     {append([]byte{tagStateReport, 0, 0}, huge...), new(StateReport)},
		"allocate route":   {append([]byte{tagAllocate, 0}, huge...), new(Allocate)},
		"ack processed":    {append([]byte{tagAllocateAck, 0}, huge...), new(AllocateAck)},
		"restore snapshot": {append([]byte{tagRestoreRequest, 0}, huge...), new(RestoreRequest)},
		"restore ack lens": {append([]byte{tagRestoreAck, 0}, huge...), new(RestoreAck)},
	}
	for name, tc := range bodies {
		var err error
		got := allocatedBytes(func() { err = Unmarshal(tc.data, tc.dst) })
		if !errors.Is(err, ErrMalformedWire) {
			t.Errorf("%s: err = %v, want ErrMalformedWire", name, err)
		}
		if got > 4096 {
			t.Errorf("%s: rejecting a 2^31 count allocated %d bytes", name, got)
		}
	}

	batch := append([]byte{}, 0x80, 0x80, 0x80, 0x80, 0x08) // uvarint 2^31
	got := allocatedBytes(func() {
		if _, err := parseBatchItems(batch, nil); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("batch items: err = %v, want ErrMalformedWire", err)
		}
		if _, err := checkBatchReplies(batch); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("batch replies: err = %v, want ErrMalformedWire", err)
		}
	})
	if got > 4096 {
		t.Errorf("rejecting a batch of 2^31 items allocated %d bytes", got)
	}

	// Frames: a length above the cap, a length the stream never delivers, and
	// a version from the future.
	frames := map[string]struct {
		stream string
		want   error
	}{
		"over cap":       {"\x01\x00\x00\x04\x01", ErrFrameTooLarge},
		"under minimum":  {"\x04\x00\x00\x00\x01\x00\x00\x00\x00", ErrMalformedWire},
		"never arrives":  {"\x00\x00\x00\x04\x01\x01\x00", nil},
		"future version": {"\x0c\x00\x00\x00\x02\x01\x00\x04ping\x00\x05\x2a\x00", ErrWireVersion},
	}
	for name, tc := range frames {
		var err error
		got := allocatedBytes(func() {
			br := bufio.NewReaderSize(strings.NewReader(tc.stream), 16)
			_, err = readFrame(br, nil)
		})
		if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		if got > readChunk+8192 {
			t.Errorf("%s: reading a %d-byte stream allocated %d bytes", name, len(tc.stream), got)
		}
	}
}

// FuzzCodec holds the body codec to its contract on arbitrary bytes, for
// every message type: Unmarshal never panics; whatever it leaves in the
// destination is sized by the bytes present, never by a claimed count; a body
// that decodes stops decoding when a byte is appended; and a decoded message
// survives Marshal and Unmarshal bit-for-bit, and as it survived gob (see
// asGobSaw for the one sign bit gob dropped).
func FuzzCodec(f *testing.F) {
	for _, m := range codecSamples() {
		data, err := Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{tagStateReport, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x07})                     // 2^31-1 floats claimed
	f.Add([]byte{tagAllocate, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})               // 2^42 ints claimed
	f.Add([]byte{tagPing, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 0}) // varint overflow
	f.Add([]byte{tagStateRequest, 0x80, 0x00})                                            // padded varint

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dst := range newMessages() {
			err := Unmarshal(data, dst)
			if held := heldBytes(reflect.ValueOf(dst).Elem()); held > 8*len(data) {
				t.Fatalf("%T holds %d bytes after decoding %d (err %v)", dst, held, len(data), err)
			}
			if err != nil {
				if !errors.Is(err, ErrMalformedWire) {
					t.Fatalf("%T: untyped decode error %v", dst, err)
				}
				continue
			}
			again := reflect.New(reflect.TypeOf(dst).Elem()).Interface()
			if err := Unmarshal(append(data[:len(data):len(data)], 0), again); err == nil {
				t.Fatalf("%T decoded with a trailing byte", dst)
			}
			if got := viaCodec(t, dst); !bitsEqual(reflect.ValueOf(got), reflect.ValueOf(dst)) {
				t.Fatalf("%T round trip: %+v became %+v", dst, dst, got)
			}
			if want := viaGob(t, dst); !bitsEqual(asGobSaw(dst), reflect.ValueOf(want)) {
				t.Fatalf("%T: codec decoded %+v, gob normalises it to %+v", dst, dst, want)
			}
		}
	})
}

// heldBytes sums the backing arrays of a message's slices.
func heldBytes(v reflect.Value) int {
	n := 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Slice {
			n += f.Cap() * int(f.Type().Elem().Size())
		}
	}
	return n
}
