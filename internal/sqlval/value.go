// Package sqlval implements the SQL value domain used throughout the LDV
// engine: typed scalar values with SQL NULL semantics, three-valued
// comparison, arithmetic, LIKE pattern matching, hashing for join keys, and
// a compact binary encoding shared by the storage layer and the wire
// protocol.
package sqlval

import (
	"fmt"
	"hash/fnv"
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

// SQLLiteral renders the value as a SQL literal suitable for re-parsing,
// e.g. for CSV-to-INSERT round trips during package restore.
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

// Hash returns a hash of the value suitable for hash joins and grouping.
// Values that are Equal hash identically (numeric cross-kind included).
func (v Value) Hash() uint64 {
	h := fnv.New64a()
	switch v.kind {
	case KindNull:
		h.Write([]byte{0})
	case KindString:
		h.Write([]byte{1})
		h.Write([]byte(v.s))
	case KindBool:
		h.Write([]byte{2, byte(v.n)})
	case KindDate:
		var buf [9]byte
		buf[0] = 3
		putUint64(buf[1:], uint64(v.n))
		h.Write(buf[:])
	default: // numeric: hash by float64 so 1 and 1.0 collide deliberately
		f, _ := v.AsFloat()
		var buf [9]byte
		buf[0] = 4
		putUint64(buf[1:], math.Float64bits(f))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// GroupKey returns a string key under which Equal values collide, used for
// GROUP BY and duplicate elimination.
func (v Value) GroupKey() string {
	var buf [32]byte
	return string(v.AppendGroupKey(buf[:0]))
}

// AppendGroupKey appends the value's GroupKey to dst, for callers that
// assemble multi-column keys in a reused buffer.
func (v Value) AppendGroupKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0)
	case KindString:
		return append(append(dst, 's'), v.s...)
	case KindBool:
		return strconv.AppendInt(append(dst, 'b'), v.n, 10)
	case KindDate:
		return strconv.AppendInt(append(dst, 'd'), v.n, 10)
	default:
		f, _ := v.AsFloat()
		return strconv.AppendFloat(append(dst, 'n'), f, 'g', -1, 64)
	}
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
