package sqlval

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
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

func TestHashEqualValuesCollide(t *testing.T) {
	if NewInt(7).Hash() != NewFloat(7.0).Hash() {
		t.Error("7 and 7.0 must hash identically")
	}
	if NewString("x").Hash() == NewString("y").Hash() {
		t.Error("different strings should hash differently (fnv)")
	}
}

func TestGroupKeyDistinguishesKinds(t *testing.T) {
	// '1' (text) and 1 (int) must not collide.
	if NewString("1").GroupKey() == NewInt(1).GroupKey() {
		t.Error("text '1' and int 1 group keys collide")
	}
	// but 1 and 1.0 must collide (they are Equal).
	if NewInt(1).GroupKey() != NewFloat(1).GroupKey() {
		t.Error("1 and 1.0 group keys must collide")
	}
}

// TestAppendGroupKeyConcatenates: keys appended into one buffer are the
// GroupKeys laid end to end, whatever the buffer already holds and however
// long the value (GroupKey itself goes through a fixed-size scratch array).
func TestAppendGroupKeyConcatenates(t *testing.T) {
	vals := []Value{Null, NewInt(-7), NewFloat(2.5), NewFloat(1e21), NewBool(true),
		NewDate(1995, 3, 15), NewString(""), NewString(strings.Repeat("long text ", 20))}
	var buf []byte
	want := ""
	for _, v := range vals {
		buf = v.AppendGroupKey(buf)
		want += v.GroupKey()
	}
	if string(buf) != want {
		t.Errorf("appended keys = %q, want %q", buf, want)
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
			return a.V.Hash() == b.V.Hash() && a.V.GroupKey() == b.V.GroupKey()
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
