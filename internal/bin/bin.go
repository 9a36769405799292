// Package bin is the primitive binary encoding every LDV format is built
// from — table files, WAL records, the binary trace, package archives and
// wire frames (DESIGN.md "Binary encodings"): unsigned and zig-zag signed
// varints as encoding/binary writes them, strings and byte runs as a uvarint
// length then the bytes, and element counts. It is written once so that
// every format decodes under one bounds rule: a count is checked against the
// bytes left to back it before anything is sized from it, and what is sized
// from it is bounded by those bytes.
package bin

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"
)

// UvarintLen returns len(binary.AppendUvarint(nil, x)).
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// VarintLen returns len(binary.AppendVarint(nil, x)) (zig-zag, then uvarint).
func VarintLen(x int64) int { return UvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// AppendString appends s as a uvarint length then its bytes.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// expansion and reserveFloor bound what a decoder reserves from a count
// ahead of decoding the elements: at most expansion bytes of memory per
// byte of input left, or reserveFloor bytes. Real data decodes within it (a
// loaded TPC-H lineitem version takes under 5 bytes of memory per byte of
// its table-file image), so a count its input backs gets its memory in one
// allocation, while one it does not back costs at most that much before its
// elements fail to decode.
const (
	expansion    = 8
	reserveFloor = 4 << 10
)

// Reserve returns how many of n elements, each taking elemBytes of memory
// once decoded, a decoder may make room for with left bytes of input to
// decode them from. Room for the rest, if they decode, is made by append.
func Reserve(n, elemBytes, left int) int {
	return min(n, max(expansion*left, reserveFloor)/max(elemBytes, 1))
}

// Make returns an empty slice with room for Reserve(n, size of T, left)
// elements.
func Make[T any](n, left int) []T {
	var zero T
	return make([]T, 0, Reserve(n, int(unsafe.Sizeof(zero)), left))
}

// Reader decodes a buffer front to back. The first failure sticks: Err and
// Done report it, and it consumes what is left, so every later read fails
// too and returns a zero value — a decoder reads a record field by field and
// checks once.
type Reader struct {
	b    []byte
	text string // string(b) for a Reader made by NewTextReader, else ""
	off  int
	err  error
}

// NewReader returns a Reader over b. Strings it reads are copies; byte runs
// alias b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// NewTextReader returns a Reader over b that converts b to a string once:
// every string it reads is a substring of that copy, and keeps all of it
// alive, instead of an allocation of its own.
func NewTextReader(b []byte) *Reader { return &Reader{b: b, text: string(b)} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf records a failure of the caller's own — a value out of range, an
// order violated — unless one is already recorded.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
	r.off = len(r.b)
}

// fail is a read's failure: truncated input or a malformed varint. It is
// kept out of line so that the reads inline.
//
//go:noinline
func (r *Reader) fail() { r.Failf("truncated or malformed input at byte %d", r.off) }

// Len returns the bytes left to read: none once a read has failed.
func (r *Reader) Len() int { return len(r.b) - r.off }

// Done returns the first failure or, if there was none, an error when bytes
// are left: a record is exactly its bytes.
func (r *Reader) Done() error {
	if r.err == nil && r.off < len(r.b) {
		return fmt.Errorf("%d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off < len(r.b) {
		r.off++
		return r.b[r.off-1]
	}
	r.fail()
	return 0
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || r.overlong(n) {
		r.fail()
		return 0
	}
	r.off += n
	return x
}

// overlong reports whether the n-byte varint at the read position is not in
// its shortest form (a last byte of zero). Encoders write only that form, so
// the decoders read only it, and an encoding means one thing.
func (r *Reader) overlong(n int) bool { return n > 1 && r.b[r.off+n-1] == 0 }

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	x := r.Uvarint()
	return int64(x>>1) ^ -int64(x&1)
}

// Fixed reads the next n bytes, a length the format implies. They alias
// the buffer, capped at n so that an append to them cannot overwrite what
// follows.
func (r *Reader) Fixed(n int) []byte {
	if n > r.Len() {
		r.fail()
		return nil
	}
	r.off += n
	return r.b[r.off-n : r.off : r.off]
}

// Raw reads a length-prefixed byte run, aliasing the buffer as Fixed does.
func (r *Reader) Raw() []byte {
	n := r.Uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.fail()
		return nil
	}
	end := r.off + int(n)
	b := r.b[r.off:end:end]
	r.off = end
	return b
}

// Str reads a length-prefixed string: a substring of the Reader's string
// image when it has one, a copy otherwise.
func (r *Reader) Str() string {
	n := r.Uvarint()
	if n > uint64(len(r.b)-r.off) {
		r.fail()
		return ""
	}
	start := r.off
	r.off += int(n)
	if r.text != "" {
		return r.text[start:r.off]
	}
	return string(r.b[start:r.off])
}

// Count reads the count of a run of elements that each take at least
// minElemBytes (≥ 1) bytes, and fails when the bytes left cannot hold that
// many — before the caller sizes anything from it. What it returns is safe
// to loop to; memory for the elements is sized with Make or Reserve.
func (r *Reader) Count(what string, minElemBytes int) int {
	n, k := binary.Uvarint(r.b[r.off:])
	switch left := len(r.b) - r.off - k; {
	case k <= 0 || r.overlong(k):
		r.Failf("bad %s count at byte %d", what, r.off)
	case n > uint64(left/minElemBytes):
		r.Failf("%s count %d exceeds the %d bytes left", what, n, left)
	default:
		r.off += k
		return int(n)
	}
	return 0
}

// Rest returns the bytes left without reading them, and their string image
// when the Reader has one — for a decoder of its own (sqlval's rows), which
// then consumes what it used with Fixed.
func (r *Reader) Rest() ([]byte, string) {
	if r.text == "" {
		return r.b[r.off:], ""
	}
	return r.b[r.off:], r.text[r.off:]
}

// Writer writes an encoding in two passes over one description of it: the
// zero Writer only counts the bytes each call would write, and Encode then
// runs the description again into a buffer of exactly that size.
type Writer struct {
	n       int
	buf     []byte
	writing bool
}

// Encode runs write against a counting Writer, then against one writing
// into a buffer with room for what it counted plus extra bytes, and returns
// that buffer. (A value that changes between the passes makes the buffer
// grow or fall short of its capacity; its contents are still the second
// pass's encoding.)
func Encode(extra int, write func(w *Writer)) []byte {
	var w Writer
	write(&w)
	w.buf, w.writing = make([]byte, 0, w.n+extra), true
	write(&w)
	return w.buf
}

// Byte writes one byte.
func (w *Writer) Byte(c byte) {
	if w.writing {
		w.buf = append(w.buf, c)
	} else {
		w.n++
	}
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(x uint64) {
	if w.writing {
		w.buf = binary.AppendUvarint(w.buf, x)
	} else {
		w.n += UvarintLen(x)
	}
}

// Varint writes a zig-zag signed varint.
func (w *Writer) Varint(x int64) {
	if w.writing {
		w.buf = binary.AppendVarint(w.buf, x)
	} else {
		w.n += VarintLen(x)
	}
}

// Fixed writes b as it is, its length implied by the format.
func (w *Writer) Fixed(b []byte) {
	if w.writing {
		w.buf = append(w.buf, b...)
	} else {
		w.n += len(b)
	}
}

// Raw writes a length-prefixed byte run.
func (w *Writer) Raw(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.Fixed(b)
}

// Append writes a piece whose encoding is defined elsewhere (sqlval's
// rows): counting, it adds size(); writing, it lets add append it to the
// buffer. The two must agree.
func (w *Writer) Append(size func() int, add func([]byte) []byte) {
	if w.writing {
		w.buf = add(w.buf)
	} else {
		w.n += size()
	}
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	if w.writing {
		w.buf = AppendString(w.buf, s)
	} else {
		w.n += UvarintLen(uint64(len(s))) + len(s)
	}
}
