package wire

import (
	"bytes"
	"reflect"
	"testing"

	"ldv/internal/sqlval"
)

// TestPreparedEncodingsPinned pins the prepared-statement frame payloads
// byte-for-byte, spelled apart from the encoder: every field is present, in
// declaration order.
func TestPreparedEncodingsPinned(t *testing.T) {
	zeroTrace := make([]byte, spanContextSize)
	cases := []struct {
		m    Message
		want []byte
	}{
		{Parse{Name: "s1", SQL: "SELECT 1"},
			[]byte("\x02s1\x08SELECT 1")},
		{ParseComplete{Name: "s1", NumParams: 2, Fingerprint: "ab"},
			[]byte("\x02s1\x02\x02ab")},
		{CloseStmt{Name: "s1"},
			[]byte("\x02s1")},
		// Execute carries the 24-byte trace context and the MinApplied
		// uvarint, zero or not.
		{Execute{Stmt: "s1", Tag: 7},
			append([]byte("\x02s1\x07\x00"), append(zeroTrace, 0)...)},
		{Execute{Stmt: "s1", Tag: 1, WithLineage: true, MinApplied: 3},
			append([]byte("\x02s1\x01\x01"), append(zeroTrace, 3)...)},
	}
	for _, c := range cases {
		if got := encodePayload(c.m); !bytes.Equal(got, c.want) {
			t.Errorf("encodePayload(%#v) = %x, want %x", c.m, got, c.want)
		}
	}
}

// FuzzPrepared round-trips the prepared-statement kinds through Write/Read.
func FuzzPrepared(f *testing.F) {
	f.Add("s1", "SELECT * FROM t WHERE a = ?", uint64(1), true, uint64(0), int64(42), "x")
	f.Add("", "", uint64(0), false, uint64(99), int64(-7), "")
	f.Fuzz(func(t *testing.T, name, sql string, tag uint64, lineage bool, minApplied uint64, argInt int64, argStr string) {
		msgs := []Message{
			Parse{Name: name, SQL: sql},
			ParseComplete{Name: name, NumParams: int(tag % 16), Fingerprint: sql},
			Execute{Stmt: name, Tag: tag, WithLineage: lineage, MinApplied: minApplied},
			CloseStmt{Name: name},
		}
		for _, m := range msgs {
			var buf bytes.Buffer
			if err := Write(&buf, m); err != nil {
				t.Fatalf("Write(%#v): %v", m, err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("Read(%#v): %v", m, err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip: got %#v, want %#v", got, m)
			}
		}
		// Bind compares by value equality (sqlval.Value is not DeepEqual-safe).
		b := Bind{Stmt: name, Args: []sqlval.Value{sqlval.NewInt(argInt), sqlval.NewString(argStr), sqlval.Null}}
		var buf bytes.Buffer
		if err := Write(&buf, b); err != nil {
			t.Fatalf("Write(%#v): %v", b, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read(%#v): %v", b, err)
		}
		g := got.(Bind)
		if g.Stmt != b.Stmt || len(g.Args) != len(b.Args) {
			t.Fatalf("Bind round trip: got %#v, want %#v", g, b)
		}
		for i := range g.Args {
			if !g.Args[i].Equal(b.Args[i]) {
				t.Fatalf("Bind arg %d mismatch", i)
			}
		}
	})
}
