package sqlval

import (
	"encoding/binary"
	"fmt"

	"ldv/internal/bin"
)

// The value codec is shared by the storage layer (table files, WAL records)
// and the wire protocol (DataRow payloads), on top of internal/bin's
// primitives. Layout per value: 1 tag byte followed by a kind-specific
// payload. Integers use varint encoding; strings are length-prefixed.

// AppendEncode appends the binary encoding of v to dst and returns the
// extended slice.
func AppendEncode(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindNull:
	case KindInt, KindBool, KindDate:
		dst = binary.AppendVarint(dst, v.n)
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.n))
	case KindString:
		dst = bin.AppendString(dst, v.s)
	}
	return dst
}

// EncodedLen returns len(AppendEncode(nil, v)) without encoding.
func EncodedLen(v Value) int {
	switch v.kind {
	case KindInt, KindBool, KindDate:
		return 1 + bin.VarintLen(v.n)
	case KindFloat:
		return 9
	case KindString:
		return 1 + bin.UvarintLen(uint64(len(v.s))) + len(v.s)
	default:
		return 1
	}
}

// EncodedRowLen returns len(EncodeRow(nil, row)) without encoding.
func EncodedRowLen(row []Value) int {
	n := bin.UvarintLen(uint64(len(row)))
	for _, v := range row {
		n += EncodedLen(v)
	}
	return n
}

// EncodeRow encodes a slice of values: a uvarint count followed by each
// value's encoding.
func EncodeRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = AppendEncode(dst, v)
	}
	return dst
}

// WriteRow writes EncodeRow's image of row through w — sized with
// EncodedRowLen while w counts — so a writer of many rows allocates its
// buffer once at the final size.
func WriteRow(w *bin.Writer, row []Value) {
	w.Append(func() int { return EncodedRowLen(row) }, func(b []byte) []byte { return EncodeRow(b, row) })
}

// Decode reads one value from b, returning the value and the number of bytes
// consumed.
func Decode(b []byte) (Value, int, error) { return decode(b, "") }

// decode is Decode with an optional string image of b: when text is
// non-empty it holds the same bytes as b, and a TEXT value is a substring of
// it instead of a fresh allocation.
func decode(b []byte, text string) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, fmt.Errorf("decode value: empty buffer")
	}
	kind := Kind(b[0])
	rest := b[1:]
	switch kind {
	case KindNull:
		return Null, 1, nil
	case KindInt, KindBool, KindDate:
		i, n := binary.Varint(rest)
		if n <= 0 || overlong(rest, n) {
			return Null, 0, fmt.Errorf("decode %s: bad varint", kind)
		}
		return Value{kind: kind, n: i}, 1 + n, nil
	case KindFloat:
		if len(rest) < 8 {
			return Null, 0, fmt.Errorf("decode FLOAT: short buffer")
		}
		return Value{kind: KindFloat, n: int64(binary.LittleEndian.Uint64(rest))}, 9, nil
	case KindString:
		l, n := binary.Uvarint(rest)
		if n <= 0 || overlong(rest, n) || uint64(len(rest)-n) < l {
			return Null, 0, fmt.Errorf("decode TEXT: bad length")
		}
		end := 1 + n + int(l)
		if text != "" {
			return NewString(text[1+n : end]), end, nil
		}
		return NewString(string(b[1+n : end])), end, nil
	default:
		return Null, 0, fmt.Errorf("decode value: unknown kind tag %d", b[0])
	}
}

// SkipRow checks one EncodeRow image at the front of b by exactly the rules
// AppendDecodeRow decodes it by — the count, every varint in its shortest
// form, every length within b, every kind tag known — and returns the bytes
// it spans, without materializing a value: what a reader that keeps a row
// encoded (a provenance frame's versions) validates it with.
func SkipRow(b []byte) (int, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || overlong(b, n) {
		return 0, fmt.Errorf("decode row: bad count")
	}
	off := n
	if count > uint64(len(b)-off) {
		return 0, fmt.Errorf("decode row: count %d exceeds buffer", count)
	}
	for i := uint64(0); i < count; i++ {
		used, err := skip(b[off:])
		if err != nil {
			return 0, fmt.Errorf("decode row value %d: %w", i, err)
		}
		off += used
	}
	return off, nil
}

// skip is decode's checks without the value: the length of the one value
// at the front of b.
func skip(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, fmt.Errorf("decode value: empty buffer")
	}
	kind := Kind(b[0])
	rest := b[1:]
	switch kind {
	case KindNull:
		return 1, nil
	case KindInt, KindBool, KindDate:
		_, n := binary.Varint(rest)
		if n <= 0 || overlong(rest, n) {
			return 0, fmt.Errorf("decode %s: bad varint", kind)
		}
		return 1 + n, nil
	case KindFloat:
		if len(rest) < 8 {
			return 0, fmt.Errorf("decode FLOAT: short buffer")
		}
		return 9, nil
	case KindString:
		l, n := binary.Uvarint(rest)
		if n <= 0 || overlong(rest, n) || uint64(len(rest)-n) < l {
			return 0, fmt.Errorf("decode TEXT: bad length")
		}
		return 1 + n + int(l), nil
	default:
		return 0, fmt.Errorf("decode value: unknown kind tag %d", b[0])
	}
}

// overlong reports whether the n-byte varint at the front of b is not in its
// shortest form. AppendEncode writes only that form, so decoding reads only
// it — bin.Reader's rule — and an accepted encoding re-encodes to its bytes.
func overlong(b []byte, n int) bool { return n > 1 && b[n-1] == 0 }

// DecodeRow decodes a row produced by EncodeRow, returning the values and
// bytes consumed. The row and each of its TEXT values are fresh allocations;
// a reader of many rows uses AppendDecodeRow.
func DecodeRow(b []byte) ([]Value, int, error) { return AppendDecodeRow(nil, b, "") }

// ReadRow reads one EncodeRow image at r's position, appending its values to
// dst (nil: a slice of the row's size), TEXT values being substrings of r's
// string image when it has one. On error r fails and dst is returned as it
// was passed.
func ReadRow(r *bin.Reader, dst []Value) []Value {
	b, text := r.Rest()
	vals, n, err := AppendDecodeRow(dst, b, text)
	if err != nil {
		r.Failf("%w", err)
		return dst
	}
	r.Fixed(n)
	return vals
}

// AppendDecodeRow is the row-decode loop: it decodes one EncodeRow image
// from the front of b, appends its values to dst and returns the extended
// slice and the bytes consumed. A nil dst is allocated at the row's size, as
// far as the bytes after the count can back it (bin.Make). When text is
// non-empty it must be string(b) — the caller converted the whole buffer
// once — and TEXT values are returned as substrings of it, so decoding
// allocates nothing per value and every such value keeps text alive. On
// error dst is returned as it was passed.
func AppendDecodeRow(dst []Value, b []byte, text string) ([]Value, int, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || overlong(b, n) {
		return dst, 0, fmt.Errorf("decode row: bad count")
	}
	off := n
	// Every value occupies at least one byte, so a count beyond the
	// remaining buffer is corrupt — reject it before allocating (a fuzzer
	// found the unchecked preallocation could be driven to OOM).
	if count > uint64(len(b)-off) {
		return dst, 0, fmt.Errorf("decode row: count %d exceeds buffer", count)
	}
	if text != "" && len(text) != len(b) {
		return dst, 0, fmt.Errorf("decode row: text image is %d bytes, buffer %d", len(text), len(b))
	}
	orig := dst
	if dst == nil {
		dst = bin.Make[Value](int(count), len(b)-off)
	}
	for i := uint64(0); i < count; i++ {
		var sub string
		if text != "" {
			sub = text[off:]
		}
		v, used, err := decode(b[off:], sub)
		if err != nil {
			return orig, 0, fmt.Errorf("decode row value %d: %w", i, err)
		}
		dst = append(dst, v)
		off += used
	}
	return dst, off, nil
}
