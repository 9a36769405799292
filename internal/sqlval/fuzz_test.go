package sqlval

import "testing"

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
