package sqlval

import (
	"math"
	"testing"
)

// codecSeeds is the corpus both codec fuzz targets start from.
func codecSeeds(f *testing.F) {
	f.Add(AppendEncode(nil, NewInt(42)))
	f.Add(AppendEncode(nil, NewString("hello")))
	f.Add(EncodeRow(nil, []Value{NewFloat(1.5), Null, NewBool(true)}))
	f.Add([]byte{0xff, 0x00})
}

// FuzzDecode asserts the value codec never panics and consumed lengths stay
// in bounds.
func FuzzDecode(f *testing.F) {
	codecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, n, err := Decode(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("bad consumed length %d of %d", n, len(data))
			}
			_ = v.String() // must not panic either
		}
		if row, n, err := DecodeRow(data); err == nil {
			if n <= 0 || n > len(data) {
				t.Fatalf("bad row length %d of %d", n, len(data))
			}
			for _, v := range row {
				_ = v.String()
			}
		}
	})
}

// FuzzSkipRow asserts the validating walk is the decoder's twin: SkipRow
// accepts exactly the inputs AppendDecodeRow accepts, and spans the bytes it
// consumes, so a row kept encoded decodes later without an error.
func FuzzSkipRow(f *testing.F) {
	codecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		_, want, derr := AppendDecodeRow(nil, data, "")
		got, serr := SkipRow(data)
		if (derr == nil) != (serr == nil) || got != want {
			t.Fatalf("%x: SkipRow = %d, %v; AppendDecodeRow consumed %d, %v", data, got, serr, want, derr)
		}
	})
}

// FuzzValueHash asserts Hash agrees with SameKey, the equality of join,
// GROUP BY and DISTINCT keys: for two values decoded from the input, and
// for each numeric one against its image in the other numeric kind, values
// SameKey calls equal hash equal. SameKey must also be symmetric and, for
// non-NULL values other than NaN, be exactly Compare's equality.
func FuzzValueHash(f *testing.F) {
	pair := func(a, b Value) []byte { return AppendEncode(AppendEncode(nil, a), b) }
	f.Add(pair(NewInt(7), NewFloat(7)))
	f.Add(pair(NewInt(9007199254740993), NewFloat(9007199254740992)))
	f.Add(pair(NewInt(0), NewFloat(math.Copysign(0, -1))))
	f.Add(pair(NewFloat(math.NaN()), NewFloat(1)))
	f.Add(pair(NewString("a\x00b"), NewString("a\x00b")))
	f.Add(pair(Null, NewBool(false)))
	f.Add(pair(NewDateDays(1), NewInt(1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, n, err := Decode(data)
		if err != nil {
			return
		}
		b, _, err := Decode(data[n:])
		if err != nil {
			b = a
		}
		check := func(x, y Value) {
			same := x.SameKey(y)
			if same != y.SameKey(x) {
				t.Fatalf("SameKey(%v %s, %v %s) is not symmetric", x, x.Kind(), y, y.Kind())
			}
			if same && (x.Hash(0) != y.Hash(0) || x.Hash(0x5eed) != y.Hash(0x5eed)) {
				t.Fatalf("%v (%s) and %v (%s) are one key but hash apart", x, x.Kind(), y, y.Kind())
			}
			if isNaN(x) || isNaN(y) || x.IsNull() || y.IsNull() {
				return
			}
			if c, ok := x.Compare(y); (ok && c == 0) != same {
				t.Fatalf("SameKey(%v %s, %v %s) = %v disagrees with Compare", x, x.Kind(), y, y.Kind(), same)
			}
		}
		check(a, b)
		for _, v := range []Value{a, b} {
			switch v.Kind() {
			case KindInt:
				check(v, NewFloat(float64(v.Int())))
			case KindFloat:
				if f := v.Float(); f == math.Trunc(f) && math.Abs(f) < 1<<63 {
					check(v, NewInt(int64(f)))
				}
			}
		}
	})
}

func isNaN(v Value) bool { return v.Kind() == KindFloat && math.IsNaN(v.Float()) }
