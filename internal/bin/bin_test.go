package bin

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"unsafe"
)

func TestVarintLenIsExact(t *testing.T) {
	for _, x := range []uint64{0, 1, 127, 128, 16383, 16384, math.MaxInt64, math.MaxUint64} {
		if got, want := UvarintLen(x), len(binary.AppendUvarint(nil, x)); got != want {
			t.Fatalf("UvarintLen(%d) = %d, want %d", x, got, want)
		}
		if got, want := VarintLen(int64(x)), len(binary.AppendVarint(nil, int64(x))); got != want {
			t.Fatalf("VarintLen(%d) = %d, want %d", int64(x), got, want)
		}
	}
}

// writeAll writes one of each primitive, extremes included.
func writeAll(w *Writer) {
	w.Byte(7)
	w.Uvarint(math.MaxUint64)
	w.Varint(math.MinInt64)
	w.Fixed([]byte("LDV"))
	w.Raw([]byte{1, 2, 3})
	w.Str("naïve")
	w.Str("")
	w.Uvarint(2) // a count of two one-byte elements
	w.Byte(8)
	w.Byte(9)
}

// TestWriterReaderRoundTrip: the counting pass sizes what the writing pass
// writes exactly, the writing pass writes what encoding/binary does, and a
// Reader reads it back — a text Reader returning substrings of its image.
func TestWriterReaderRoundTrip(t *testing.T) {
	b := Encode(0, writeAll)
	if len(b) != cap(b) {
		t.Fatalf("encoded %d bytes into a %d-byte buffer", len(b), cap(b))
	}
	want := []byte{7}
	want = binary.AppendUvarint(want, math.MaxUint64)
	want = binary.AppendVarint(want, math.MinInt64)
	want = append(want, "LDV\x03\x01\x02\x03\x06naïve\x00\x02\x08\x09"...)
	if !bytes.Equal(b, want) {
		t.Fatalf("encoded %x, want %x", b, want)
	}
	for _, r := range []*Reader{NewReader(b), NewTextReader(b)} {
		if r.Byte() != 7 || r.Uvarint() != math.MaxUint64 || r.Varint() != math.MinInt64 || string(r.Fixed(3)) != "LDV" {
			t.Fatal("fixed-width fields differ")
		}
		raw := r.Raw()
		if !bytes.Equal(raw, []byte{1, 2, 3}) || cap(raw) != 3 || &raw[0] != &b[len(b)-14] {
			t.Fatalf("Raw = %x (cap %d): want the aliased, capped run", raw, cap(raw))
		}
		s := r.Str()
		if s != "naïve" || r.Str() != "" {
			t.Fatalf("Str = %q", s)
		}
		if at := bytes.Index(b, []byte(s)); r.text != "" && unsafe.StringData(s) != unsafe.StringData(r.text[at:]) {
			t.Fatal("a text Reader copied a string")
		}
		n := r.Count("byte", 1)
		if n != 2 || r.Byte() != 8 || r.Byte() != 9 || r.Done() != nil {
			t.Fatalf("count %d, done %v", n, r.Done())
		}
	}
}

// TestReaderFailures: every read past the end, every length or count the
// bytes cannot back, fails — the first failure sticks, later reads return
// zero values, and Len reports nothing left.
func TestReaderFailures(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string
	}{
		{"byte", nil, func(r *Reader) { r.Byte() }, "truncated or malformed input at byte 0"},
		{"uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }, "malformed"},
		{"overflowing varint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Varint() }, "malformed"},
		{"overlong varint", []byte{0x81, 0x00}, func(r *Reader) { r.Uvarint() }, "malformed input at byte 0"},
		{"overlong count", []byte{0x80, 0x00}, func(r *Reader) { r.Count("pair", 2) }, "bad pair count"},
		{"fixed", []byte{1, 2}, func(r *Reader) { r.Fixed(3) }, "truncated"},
		{"raw", []byte{4, 1, 2, 3}, func(r *Reader) { r.Raw() }, "malformed input at byte 1"},
		{"str", []byte{0xff, 0x01}, func(r *Reader) { r.Str() }, "malformed input at byte 2"},
		{"count", []byte{3, 0, 0, 0, 0, 0}, func(r *Reader) { r.Count("pair", 2) }, "pair count 3 exceeds the 5 bytes left"},
		{"bad count", []byte{0x80}, func(r *Reader) { r.Count("pair", 2) }, "bad pair count"},
		{"trailing", []byte{1, 2}, func(r *Reader) { r.Byte() }, "1 trailing bytes"},
	}
	for _, c := range cases {
		r := NewReader(c.in)
		c.read(r)
		err := r.Done()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error mentioning %q", c.name, err, c.want)
		}
		if c.name == "trailing" {
			continue
		}
		if r.Len() != 0 || r.Byte() != 0 || r.Uvarint() != 0 || r.Str() != "" || len(r.Raw()) != 0 || r.Count("x", 1) != 0 {
			t.Errorf("%s: reads after a failure return values", c.name)
		}
		if b, text := r.Rest(); len(b) != 0 || text != "" {
			t.Errorf("%s: Rest after a failure = %x", c.name, b)
		}
		if r.Err() != err {
			t.Errorf("%s: a later read replaced the first failure", c.name)
		}
	}
}

// TestReserve: a count its bytes back is reserved whole; one they do not is
// cut to what the bytes could hold at the expansion bound, never below the
// floor.
func TestReserve(t *testing.T) {
	if got := Reserve(1000, 32, 12000); got != 1000 {
		t.Errorf("1000 refs in 12 000 bytes: reserved %d", got)
	}
	if got := Reserve(1<<20, 32, 1<<20); got != expansion*(1<<20)/32 {
		t.Errorf("a million 32-byte elements claimed by a megabyte: reserved %d", got)
	}
	if got := Reserve(100, 168, 0); got != reserveFloor/168 {
		t.Errorf("floor: reserved %d", got)
	}
	if s := Make[uint64](1<<30, 100); cap(s) != reserveFloor/8 || len(s) != 0 {
		t.Errorf("Make: len %d cap %d", len(s), cap(s))
	}
}
