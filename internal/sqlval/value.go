// Package sqlval implements the SQL value domain used throughout the LDV
// engine: typed scalar values with SQL NULL semantics, three-valued
// comparison, arithmetic, LIKE pattern matching, hashing for join keys, and
// a compact binary encoding shared by the storage layer and the wire
// protocol.
package sqlval

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the runtime type of a Value.
type Kind uint8

// The value kinds supported by the engine.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	KindDate
)

// String returns the SQL name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// epoch is the zero date for the DATE kind; dates are stored as day offsets
// from it, which keeps Value comparable with integer arithmetic.
var epoch = time.Date(1970, 1, 1, 0, 0, 0, 0, time.UTC)

// Value is a single SQL scalar. The zero Value is SQL NULL.
//
// It is 32 bytes — kind, one 8-byte payload, the string header — so two
// values fill a 64-byte cache line and none straddles one (DESIGN.md "Value
// layout and table storage"). The integer and float payloads are never both
// live, so a FLOAT keeps its IEEE-754 bits in n; every comparison, hash and
// key goes through float() and sees a float, never the bits.
type Value struct {
	kind Kind
	n    int64 // KindInt, KindBool (0/1), KindDate (days since epoch); KindFloat: math.Float64bits
	s    string
}

// float returns the payload of a FLOAT value (caller checked the kind).
func (v Value) float() float64 { return math.Float64frombits(uint64(v.n)) }

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{kind: KindInt, n: v} }

// NewFloat returns a FLOAT value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, n: int64(math.Float64bits(v))} }

// NewString returns a TEXT value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value {
	var n int64
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// NewDate returns a DATE value for the given civil date.
func NewDate(year int, month time.Month, day int) Value {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Value{kind: KindDate, n: int64(t.Sub(epoch).Hours() / 24)}
}

// NewDateDays returns a DATE value from a raw day offset since 1970-01-01.
func NewDateDays(days int64) Value { return Value{kind: KindDate, n: days} }

// ParseDate parses a YYYY-MM-DD literal into a DATE value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("invalid date literal %q: %w", s, err)
	}
	return NewDate(t.Year(), t.Month(), t.Day()), nil
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics if the value is not an INTEGER.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic(fmt.Sprintf("sqlval: Int() on %s value", v.kind))
	}
	return v.n
}

// Float returns the float payload. It panics if the value is not a FLOAT.
func (v Value) Float() float64 {
	if v.kind != KindFloat {
		panic(fmt.Sprintf("sqlval: Float() on %s value", v.kind))
	}
	return v.float()
}

// Str returns the string payload. It panics if the value is not TEXT.
func (v Value) Str() string {
	if v.kind != KindString {
		panic(fmt.Sprintf("sqlval: Str() on %s value", v.kind))
	}
	return v.s
}

// Bool returns the boolean payload. It panics if the value is not a BOOLEAN.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic(fmt.Sprintf("sqlval: Bool() on %s value", v.kind))
	}
	return v.n != 0
}

// Days returns the day offset of a DATE value. It panics for other kinds.
func (v Value) Days() int64 {
	if v.kind != KindDate {
		panic(fmt.Sprintf("sqlval: Days() on %s value", v.kind))
	}
	return v.n
}

// Time converts a DATE value to a time.Time at UTC midnight.
func (v Value) Time() time.Time { return epoch.AddDate(0, 0, int(v.Days())) }

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsFloat coerces a numeric value to float64. ok is false for non-numeric
// values (including NULL).
func (v Value) AsFloat() (f float64, ok bool) {
	switch v.kind {
	case KindInt:
		return float64(v.n), true
	case KindFloat:
		return v.float(), true
	default:
		return 0, false
	}
}

// String renders the value the way the engine prints result cells.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindDate:
		return v.Time().Format("2006-01-02")
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// SQLLiteral renders the value as a SQL literal suitable for re-parsing —
// how a statement's bound values read in a trace label or a replay's
// divergence message. A FLOAT with an integral value renders as that
// integer, so the literal does not tell FLOAT 2.0 from INTEGER 2.
func (v Value) SQLLiteral() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindDate:
		return "DATE '" + v.String() + "'"
	default:
		return v.String()
	}
}

// Equal reports strict equality of kind and payload. NULL equals NULL here;
// use Compare for SQL three-valued semantics.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		// INTEGER and FLOAT compare numerically across kinds.
		if v.IsNumeric() && o.IsNumeric() {
			a, _ := v.AsFloat()
			b, _ := o.AsFloat()
			return a == b
		}
		return false
	}
	switch v.kind {
	case KindNull:
		return true
	case KindString:
		return v.s == o.s
	case KindFloat:
		return v.float() == o.float()
	default:
		return v.n == o.n
	}
}

// Compare orders two values. The second result is false when the comparison
// is UNKNOWN under SQL semantics (either side NULL) or the kinds are
// incomparable. Values of one kind compare by their own payload — two
// INTEGERs as integers, so neighbours beyond 2^53 stay distinct — and only
// an INTEGER against a FLOAT is compared as two floats.
func (v Value) Compare(o Value) (cmp int, ok bool) {
	if v.kind == KindNull || o.kind == KindNull {
		return 0, false
	}
	if v.kind != o.kind {
		if v.IsNumeric() && o.IsNumeric() {
			a, _ := v.AsFloat()
			b, _ := o.AsFloat()
			return cmpOrdered(a, b), true
		}
		return 0, false
	}
	switch v.kind {
	case KindString:
		return strings.Compare(v.s, o.s), true
	case KindBool, KindDate, KindInt:
		return cmpOrdered(v.n, o.n), true
	case KindFloat:
		return cmpOrdered(v.float(), o.float()), true
	default:
		return 0, false
	}
}

// cmpOrdered is cmp.Compare without its NaN ordering: a NaN is neither
// below nor above anything, as the < and > it is built from say.
func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// SortLess orders values for ORDER BY: NULLs sort first, then by Compare,
// with incomparable kinds ordered by kind id so sorting is total.
func SortLess(a, b Value) bool {
	if a.kind == KindNull {
		return b.kind != KindNull
	}
	if b.kind == KindNull {
		return false
	}
	if c, ok := a.Compare(b); ok {
		return c < 0
	}
	return a.kind < b.kind
}

// SameKey reports whether v and o are one key to a join, GROUP BY,
// DISTINCT, hash index or IN set: Equal, which is Compare's equality and
// puts two NULLs together (a join drops NULL keys before it asks), except
// that a NaN is the same key as a NaN only — Compare calls it equal to
// every number, which no hash could agree with.
func (v Value) SameKey(o Value) bool {
	if v.kind == KindFloat && o.kind == KindFloat {
		a, b := v.float(), o.float()
		return a == b || a != a && b != b
	}
	return v.Equal(o)
}

// Hash folds v into the running hash h of a key — a key of several columns
// folds them in order, from 0 — and agrees with SameKey: keys it calls
// equal hash equal. A number hashes by its float64 value, −0 folded into 0
// and every NaN into one, so 2 and 2.0 collide and so do the INTEGERs
// beyond 2^53 that round to one float (SameKey tells those apart). TEXT
// hashes by its bytes, BOOL and DATE by kind plus payload.
func (v Value) Hash(h uint64) uint64 {
	x, kind := uint64(v.n), v.kind
	switch kind {
	case KindInt:
		x = math.Float64bits(float64(v.n))
	case KindFloat:
		kind = KindInt
		if f := v.float(); f == 0 {
			x = 0
		} else if f != f {
			x = math.Float64bits(math.NaN())
		}
	case KindString:
		x = maphash.String(stringSeed, v.s)
	}
	return mix64(h^x) + uint64(kind)
}

// stringSeed seeds the TEXT hash; a hash lives in one process's memory.
var stringSeed = maphash.MakeSeed()

// mix64 is MurmurHash3's 64-bit finalizer: every input bit reaches every
// output bit, so a table can index by the low bits even of a float, whose
// low bits are zero for every small integer.
func mix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
