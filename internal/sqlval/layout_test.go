package sqlval

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"ldv/internal/bin"
)

// TestValueIs32Bytes pins the representation: two values per 64-byte cache
// line, none straddling one. A field added to Value fails here before it
// costs every scan a third more memory traffic.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", got)
	}
}

// TestFloatsCompareAsFloats: a FLOAT's bits share the integer payload, and
// nothing may ever compare, hash or key them as the integer they look like.
func TestFloatsCompareAsFloats(t *testing.T) {
	neg, pos := NewFloat(math.Copysign(0, -1)), NewFloat(0)
	if !neg.Equal(pos) {
		t.Error("-0.0 must Equal 0.0")
	}
	if c, ok := neg.Compare(pos); !ok || c != 0 {
		t.Errorf("Compare(-0.0, 0.0) = %d, %v", c, ok)
	}
	nan := NewFloat(math.NaN())
	if nan.Equal(nan) {
		t.Error("NaN must not Equal NaN")
	}
	// As bit patterns -1.5 > 2.5 (the sign bit makes it a huge unsigned, or
	// a negative signed whose magnitude orders backwards).
	for _, p := range [][2]float64{{-1.5, 2.5}, {-2.5, -1.5}, {1e-300, 1e300}, {-1e300, -1e-300}} {
		a, b := NewFloat(p[0]), NewFloat(p[1])
		if c, ok := a.Compare(b); !ok || c != -1 {
			t.Errorf("Compare(%v, %v) = %d, %v, want -1", a, b, c, ok)
		}
		if !SortLess(a, b) || SortLess(b, a) {
			t.Errorf("SortLess disagrees on %v < %v", a, b)
		}
	}
	two, twoF := NewInt(2), NewFloat(2)
	if !two.Equal(twoF) || two.Hash() != twoF.Hash() || two.GroupKey() != twoF.GroupKey() {
		t.Error("2 and 2.0 must be Equal and share Hash and GroupKey")
	}
	if f := NewFloat(-7.25); f.Float() != -7.25 || f.String() != "-7.25" {
		t.Errorf("float payload round trip: %v %s", f.Float(), f)
	}
	if f, ok := NewFloat(3.5).AsFloat(); !ok || f != 3.5 {
		t.Errorf("AsFloat = %v, %v", f, ok)
	}
	if v, _ := Neg(NewFloat(1.5)); v.Float() != -1.5 {
		t.Errorf("Neg(1.5) = %v", v)
	}
}

// TestCompareIntegersAsIntegers: two INTEGERs beyond 2^53 that round to one
// float64 are different values; only INTEGER against FLOAT goes through
// float64.
func TestCompareIntegersAsIntegers(t *testing.T) {
	const big = int64(1) << 53
	a, b := NewInt(big), NewInt(big+1)
	if c, ok := a.Compare(b); !ok || c != -1 {
		t.Errorf("Compare(2^53, 2^53+1) = %d, %v, want -1", c, ok)
	}
	if c, ok := b.Compare(a); !ok || c != 1 {
		t.Errorf("Compare(2^53+1, 2^53) = %d, %v, want 1", c, ok)
	}
	if a.Equal(b) || !SortLess(a, b) {
		t.Error("2^53 and 2^53+1 must differ and sort in order")
	}
	if c, ok := NewInt(math.MinInt64).Compare(NewInt(math.MaxInt64)); !ok || c != -1 {
		t.Errorf("Compare(MinInt64, MaxInt64) = %d, %v", c, ok)
	}
	if c, ok := b.Compare(NewFloat(float64(big))); !ok || c != 0 {
		t.Errorf("Compare(INTEGER 2^53+1, FLOAT 2^53) = %d, %v: mixed kinds compare as floats", c, ok)
	}
	if c, ok := NewInt(2).Compare(NewFloat(2.5)); !ok || c != -1 {
		t.Errorf("Compare(2, 2.5) = %d, %v", c, ok)
	}
}

// TestEncodedLenIsExact: the length functions a writer sizes its buffer
// with agree with the encoder byte for byte, extremes included.
func TestEncodedLenIsExact(t *testing.T) {
	vals := []Value{
		Null, NewInt(0), NewInt(-1), NewInt(63), NewInt(64), NewInt(-64), NewInt(-65),
		NewInt(math.MaxInt64), NewInt(math.MinInt64), NewFloat(math.Inf(-1)), NewFloat(0),
		NewString(""), NewString(string(make([]byte, 127))), NewString(string(make([]byte, 128))),
		NewBool(true), NewBool(false), NewDateDays(-400000), NewDateDays(20000),
	}
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 500; i++ {
		vals = append(vals, randomValue(r), NewInt(int64(r.Uint64())))
	}
	for _, v := range vals {
		if got, want := EncodedLen(v), len(AppendEncode(nil, v)); got != want {
			t.Fatalf("EncodedLen(%s %v) = %d, encoding is %d bytes", v.Kind(), v, got, want)
		}
	}
	for n := 0; n <= len(vals); n += 37 {
		if got, want := EncodedRowLen(vals[:n]), len(EncodeRow(nil, vals[:n])); got != want {
			t.Fatalf("EncodedRowLen of %d values = %d, encoding is %d bytes", n, got, want)
		}
		got := bin.Encode(0, func(w *bin.Writer) { WriteRow(w, vals[:n]) })
		if want := EncodeRow(nil, vals[:n]); len(got) != cap(got) || !bytes.Equal(got, want) {
			t.Fatalf("WriteRow of %d values: %d bytes in a %d-byte buffer, want %d", n, len(got), cap(got), len(want))
		}
	}
}

// TestAppendDecodeRowSlab: the bulk form of the row-decode loop appends into
// the caller's slab, takes TEXT values from the caller's string image
// instead of allocating them, and is the loop DecodeRow wraps.
func TestAppendDecodeRowSlab(t *testing.T) {
	rows := [][]Value{
		{NewInt(1), NewString("alpha"), NewFloat(1.5), Null},
		{NewInt(2), NewString(""), NewFloat(-0.5), NewString("naïve 表")},
	}
	var buf []byte
	for _, r := range rows {
		buf = EncodeRow(buf, r)
	}
	text := string(buf)
	slab := make([]Value, 0, 8)
	off := 0
	for i, want := range rows {
		var n int
		var err error
		start := len(slab)
		slab, n, err = AppendDecodeRow(slab, buf[off:], text[off:])
		if err != nil {
			t.Fatal(err)
		}
		got := slab[start:]
		ref, refN, err := DecodeRow(buf[off:])
		if err != nil || refN != n || len(ref) != len(got) {
			t.Fatalf("row %d: DecodeRow = %v, %d, %v; AppendDecodeRow consumed %d", i, ref, refN, err, n)
		}
		for j := range want {
			if got[j].Kind() != want[j].Kind() || !got[j].Equal(want[j]) || !ref[j].Equal(want[j]) {
				t.Fatalf("row %d value %d: got %v / %v, want %v", i, j, got[j], ref[j], want[j])
			}
			if s := got[j]; s.Kind() == KindString && len(s.Str()) > 0 {
				p := uintptr(unsafe.Pointer(unsafe.StringData(s.Str())))
				base := uintptr(unsafe.Pointer(unsafe.StringData(text)))
				if p < base || p >= base+uintptr(len(text)) {
					t.Fatalf("row %d value %d: TEXT is not a substring of the image", i, j)
				}
			}
		}
		off += n
	}
	if off != len(buf) || cap(slab) != 8 {
		t.Fatalf("consumed %d of %d bytes, slab cap %d", off, len(buf), cap(slab))
	}
	if avg := testing.AllocsPerRun(100, func() {
		if _, _, err := AppendDecodeRow(slab[:0], buf, text); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("AppendDecodeRow into a sized slab from a string image allocates %v times per row", avg)
	}
	if _, _, err := AppendDecodeRow(nil, buf, text[:len(text)-1]); err == nil {
		t.Error("a string image of another length must be rejected")
	}
	// An error leaves the slab as it was passed.
	bad := bytes.Clone(buf)
	bad[len(EncodeRow(nil, rows[0]))-1] = 0xff // the first row's last value: unknown kind tag
	if out, _, err := AppendDecodeRow(slab[:2], bad, ""); err == nil || len(out) != 2 {
		t.Errorf("bad row: len %d, err %v", len(out), err)
	}
}
