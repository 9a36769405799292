package sqlval

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindInt:    "INTEGER",
		KindFloat:  "FLOAT",
		KindString: "TEXT",
		KindBool:   "BOOLEAN",
		KindDate:   "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestZeroValueIsNull(t *testing.T) {
	var v Value
	if !v.IsNull() {
		t.Fatal("zero Value must be NULL")
	}
	if v.Kind() != KindNull {
		t.Fatalf("zero Value kind = %v", v.Kind())
	}
}

func TestConstructorsAndAccessors(t *testing.T) {
	if NewInt(42).Int() != 42 {
		t.Error("NewInt round trip failed")
	}
	if NewFloat(2.5).Float() != 2.5 {
		t.Error("NewFloat round trip failed")
	}
	if NewString("hi").Str() != "hi" {
		t.Error("NewString round trip failed")
	}
	if !NewBool(true).Bool() || NewBool(false).Bool() {
		t.Error("NewBool round trip failed")
	}
	d := NewDate(2015, time.April, 13)
	if d.String() != "2015-04-13" {
		t.Errorf("date string = %q", d.String())
	}
	if NewDateDays(d.Days()).String() != "2015-04-13" {
		t.Error("NewDateDays round trip failed")
	}
}

func TestAccessorPanics(t *testing.T) {
	cases := []func(){
		func() { Null.Int() },
		func() { NewInt(1).Float() },
		func() { NewFloat(1).Str() },
		func() { NewString("x").Bool() },
		func() { NewBool(true).Days() },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestParseDate(t *testing.T) {
	v, err := ParseDate("1998-12-01")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "1998-12-01" {
		t.Errorf("parsed date = %q", v)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("expected error for invalid date")
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	c, ok := NewInt(3).Compare(NewFloat(3.0))
	if !ok || c != 0 {
		t.Errorf("3 vs 3.0: cmp=%d ok=%v", c, ok)
	}
	c, ok = NewInt(3).Compare(NewFloat(3.5))
	if !ok || c != -1 {
		t.Errorf("3 vs 3.5: cmp=%d ok=%v", c, ok)
	}
	c, ok = NewFloat(4.5).Compare(NewInt(4))
	if !ok || c != 1 {
		t.Errorf("4.5 vs 4: cmp=%d ok=%v", c, ok)
	}
}

func TestCompareNullIsUnknown(t *testing.T) {
	if _, ok := Null.Compare(NewInt(1)); ok {
		t.Error("NULL comparison must be unknown")
	}
	if _, ok := NewInt(1).Compare(Null); ok {
		t.Error("comparison with NULL must be unknown")
	}
}

func TestCompareIncomparableKinds(t *testing.T) {
	if _, ok := NewString("a").Compare(NewInt(1)); ok {
		t.Error("TEXT vs INTEGER must be incomparable")
	}
	if _, ok := NewBool(true).Compare(NewDate(2020, 1, 1)); ok {
		t.Error("BOOLEAN vs DATE must be incomparable")
	}
}

func TestCompareStrings(t *testing.T) {
	c, ok := NewString("abc").Compare(NewString("abd"))
	if !ok || c != -1 {
		t.Errorf("abc vs abd: %d %v", c, ok)
	}
}

func TestCompareDates(t *testing.T) {
	a := NewDate(2020, 1, 1)
	b := NewDate(2020, 6, 1)
	if c, ok := a.Compare(b); !ok || c != -1 {
		t.Errorf("date compare: %d %v", c, ok)
	}
}

func TestEqual(t *testing.T) {
	if !Null.Equal(Null) {
		t.Error("NULL must Equal NULL (strict equality, not SQL)")
	}
	if !NewInt(1).Equal(NewFloat(1.0)) {
		t.Error("1 must Equal 1.0")
	}
	if NewString("1").Equal(NewInt(1)) {
		t.Error("'1' must not Equal 1")
	}
	if !NewBool(true).Equal(NewBool(true)) {
		t.Error("true must Equal true")
	}
}

func TestSortLessTotalOrder(t *testing.T) {
	vals := []Value{Null, NewInt(1), NewFloat(0.5), NewString("a"), NewBool(false), NewDate(2020, 1, 1)}
	// NULL sorts before everything.
	for _, v := range vals[1:] {
		if !SortLess(Null, v) {
			t.Errorf("NULL must sort before %v", v)
		}
		if SortLess(v, Null) {
			t.Errorf("%v must not sort before NULL", v)
		}
	}
	if SortLess(Null, Null) {
		t.Error("NULL < NULL must be false")
	}
}

// TestHashEqualValuesCollide: keys SameKey calls equal hash equal, with
// one column or several; keys of different kinds, or differently split
// across columns, are apart.
func TestHashEqualValuesCollide(t *testing.T) {
	for _, p := range [][2]Value{
		{NewInt(7), NewFloat(7.0)},
		{NewFloat(0), NewFloat(math.Copysign(0, -1))},
		{NewInt(0), NewFloat(math.Copysign(0, -1))},
		{NewFloat(math.NaN()), NewFloat(-math.NaN())},
		{NewInt(9007199254740993), NewFloat(9007199254740992)},
		{NewString("x"), NewString("x")},
		{Null, Null},
	} {
		if !p[0].SameKey(p[1]) || p[0].Hash(0) != p[1].Hash(0) || p[0].Hash(42) != p[1].Hash(42) {
			t.Errorf("%v (%s) and %v (%s) must be one key and hash equal", p[0], p[0].Kind(), p[1], p[1].Kind())
		}
	}
	// Apart: the kinds, and neighbours beyond 2^53 (which still collide).
	for _, p := range [][2]Value{
		{NewString("1"), NewInt(1)},
		{NewBool(true), NewInt(1)},
		{NewDateDays(1), NewInt(1)},
		{NewDateDays(1), NewBool(true)},
		{NewString(""), Null},
		{NewString("x"), NewString("y")},
		{NewFloat(math.NaN()), NewFloat(1)},
	} {
		if p[0].SameKey(p[1]) || p[0].Hash(0) == p[1].Hash(0) {
			t.Errorf("%v (%s) and %v (%s) must be different keys with different hashes", p[0], p[0].Kind(), p[1], p[1].Kind())
		}
	}
	if a, b := NewInt(9007199254740993), NewInt(9007199254740992); a.SameKey(b) {
		t.Error("2^53 + 1 and 2^53 must be different keys")
	}
	// Two columns fold in order: ('a\x00sb', '') and ('a', 'b\x00s') are
	// different keys, and so are (1, 2) and (2, 1).
	fold := func(vs ...Value) (h uint64) {
		for _, v := range vs {
			h = v.Hash(h)
		}
		return h
	}
	if fold(NewString("a\x00sb"), NewString("")) == fold(NewString("a"), NewString("b\x00s")) {
		t.Error("NUL-bearing TEXT split across two columns collides")
	}
	if fold(NewInt(1), NewInt(2)) == fold(NewInt(2), NewInt(1)) {
		t.Error("(1, 2) and (2, 1) collide")
	}
	if fold(NewInt(2), NewString("x")) != fold(NewFloat(2), NewString("x")) {
		t.Error("(2, 'x') and (2.0, 'x') must hash equal")
	}
}

func TestSQLLiteral(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{NewInt(5), "5"},
		{NewString("o'brien"), "'o''brien'"},
		{NewBool(true), "true"},
		{NewDate(1999, 3, 4), "DATE '1999-03-04'"},
	}
	for _, c := range cases {
		if got := c.v.SQLLiteral(); got != c.want {
			t.Errorf("SQLLiteral(%v) = %q, want %q", c.v, got, c.want)
		}
	}
}

// randomValue generates an arbitrary Value for property tests.
func randomValue(r *rand.Rand) Value {
	switch r.Intn(6) {
	case 0:
		return Null
	case 1:
		return NewInt(r.Int63n(2000) - 1000)
	case 2:
		return NewFloat(math.Round(r.Float64()*1e6) / 100)
	case 3:
		buf := make([]byte, r.Intn(20))
		for i := range buf {
			buf[i] = byte('a' + r.Intn(26))
		}
		return NewString(string(buf))
	case 4:
		return NewBool(r.Intn(2) == 0)
	default:
		return NewDateDays(r.Int63n(20000))
	}
}

type quickValue struct{ V Value }

// Generate implements quick.Generator.
func (quickValue) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickValue{V: randomValue(r)})
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(q quickValue) bool {
		enc := AppendEncode(nil, q.V)
		dec, n, err := Decode(enc)
		return err == nil && n == len(enc) && dec.Equal(q.V) && dec.Kind() == q.V.Kind()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickRowCodecRoundTrip(t *testing.T) {
	f := func(qs []quickValue) bool {
		row := make([]Value, len(qs))
		for i, q := range qs {
			row[i] = q.V
		}
		enc := EncodeRow(nil, row)
		dec, n, err := DecodeRow(enc)
		if err != nil || n != len(enc) || len(dec) != len(row) {
			return false
		}
		for i := range row {
			if !dec[i].Equal(row[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickHashConsistentWithEqual(t *testing.T) {
	f := func(a, b quickValue) bool {
		if a.V.Equal(b.V) {
			return a.V.SameKey(b.V) && a.V.Hash(0) == b.V.Hash(0)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a, b quickValue) bool {
		c1, ok1 := a.V.Compare(b.V)
		c2, ok2 := b.V.Compare(a.V)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		return c1 == -c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("empty buffer must error")
	}
	if _, _, err := Decode([]byte{200}); err == nil {
		t.Error("unknown tag must error")
	}
	if _, _, err := Decode([]byte{byte(KindFloat), 1, 2}); err == nil {
		t.Error("short float must error")
	}
	if _, _, err := Decode([]byte{byte(KindString), 200}); err == nil {
		t.Error("bad string length must error")
	}
	if _, _, err := DecodeRow([]byte{}); err == nil {
		t.Error("empty row buffer must error")
	}
	bad := EncodeRow(nil, []Value{NewInt(1)})
	if _, _, err := DecodeRow(bad[:len(bad)-1]); err == nil {
		t.Error("truncated row must error")
	}
}

// TestDecodeRejectsOverlongVarints: a varint padded past its shortest form
// decodes to the same number, but AppendEncode never writes one, so the
// decoder refuses it — in a value, a TEXT length and a row count alike — and
// whatever decodes re-encodes to the bytes it came from.
func TestDecodeRejectsOverlongVarints(t *testing.T) {
	for name, b := range map[string][]byte{
		"INTEGER":     {byte(KindInt), 0x84, 0x00},
		"DATE":        {byte(KindDate), 0x80, 0x80, 0x00},
		"TEXT length": {byte(KindString), 0x81, 0x00, 'x'},
	} {
		if _, _, err := Decode(b); err == nil {
			t.Errorf("%s: overlong varint decoded", name)
		}
	}
	if _, _, err := DecodeRow([]byte{0x81, 0x00, byte(KindNull)}); err == nil {
		t.Error("row: overlong count decoded")
	}
	if _, _, err := DecodeRow([]byte{0x01, byte(KindInt), 0x80, 0x01}); err != nil {
		t.Errorf("a multi-byte varint in its shortest form: %v", err)
	}
}
