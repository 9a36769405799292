package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

// TestLineageEncodingsPinned pins the LineageRow and TupleValues payloads
// byte-for-byte: the decoder shares table-name strings between a frame's
// refs, the encoder reserves its buffer up front, and neither may move a
// byte on the wire.
func TestLineageEncodingsPinned(t *testing.T) {
	row := func(n int64, s string) []sqlval.Value {
		return []sqlval.Value{sqlval.NewInt(n), sqlval.NewString(s), sqlval.Null}
	}
	cases := []struct {
		m    Message
		want []byte
	}{
		{LineageRow{}, []byte{0}},
		{LineageRow{Refs: []engine.TupleRef{{Table: "t", Row: 1, Version: 2}}},
			[]byte("\x01\x01t\x01\x02")},
		// Mixed tables, a repeated one, the empty name, multi-byte varints.
		{LineageRow{Refs: []engine.TupleRef{
			{Table: "lineitem", Row: 300, Version: 70000},
			{Table: "orders", Row: 7, Version: 9},
			{Table: "lineitem", Row: 301, Version: 70001},
			{Table: "", Row: 0, Version: 0},
		}}, []byte("\x04" +
			"\x08lineitem\xac\x02\xf0\xa2\x04" +
			"\x06orders\x07\x09" +
			"\x08lineitem\xad\x02\xf1\xa2\x04" +
			"\x00\x00\x00")},
		{TupleValues{}, []byte{0}},
		{TupleValues{
			Refs: []engine.TupleRef{{Table: "a", Row: 1, Version: 1}, {Table: "a", Row: 2, Version: 5}, {Table: "b", Row: 1, Version: 1}},
			Rows: [][]sqlval.Value{row(1, "x"), row(-2, ""), row(300, "yz")},
		}, append(append(append([]byte("\x03\x01a\x01\x01\x01a\x02\x05\x01b\x01\x01"),
			sqlval.EncodeRow(nil, row(1, "x"))...),
			sqlval.EncodeRow(nil, row(-2, ""))...),
			sqlval.EncodeRow(nil, row(300, "yz"))...)},
	}
	for _, c := range cases {
		if got := encodePayload(c.m); !bytes.Equal(got, c.want) {
			t.Errorf("encodePayload(%#v) = %x, want %x", c.m, got, c.want)
		}
	}
}

func sameTupleValues(a, b TupleValues) bool {
	if !reflect.DeepEqual(a.Refs, b.Refs) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if x, y := a.Rows[i][j], b.Rows[i][j]; !x.Equal(y) && !(x.IsNull() && y.IsNull()) {
				return false
			}
		}
	}
	return true
}

// lineageRoundTrip asserts decode(encode(x)) == x for a LineageRow over refs
// and a TupleValues over refs and rows.
func lineageRoundTrip(t *testing.T, refs []engine.TupleRef, rows [][]sqlval.Value) {
	t.Helper()
	if got := roundTrip(t, LineageRow{Refs: refs}); !reflect.DeepEqual(got, LineageRow{Refs: refs}) {
		t.Fatalf("LineageRow round trip: got %#v, want %#v", got, refs)
	}
	tv := TupleValues{Refs: refs, Rows: rows}
	if got := roundTrip(t, tv).(TupleValues); !sameTupleValues(got, tv) {
		t.Fatalf("TupleValues round trip: got %#v, want %#v", got, tv)
	}
}

func TestLineageFramesRoundTrip(t *testing.T) {
	// More distinct tables than the decoder remembers, interleaved, with the
	// empty name among them.
	var refs []engine.TupleRef
	var rows [][]sqlval.Value
	for i := 0; i < 200; i++ {
		table := fmt.Sprintf("t%d", i%13)
		if i%13 == 5 {
			table = ""
		}
		refs = append(refs, engine.TupleRef{Table: table, Row: engine.RowID(i * i), Version: uint64(i) << 20})
		rows = append(rows, []sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewString(table), sqlval.NewFloat(float64(i) / 3)})
	}
	lineageRoundTrip(t, refs, rows)
	lineageRoundTrip(t, refs[:1], rows[:1])
	lineageRoundTrip(t, nil, nil)

	// One table name costs one string however many refs carry it.
	refs = refs[:0]
	for i := 0; i < 1000; i++ {
		refs = append(refs, engine.TupleRef{Table: []string{"lineitem", "orders"}[i%2], Row: engine.RowID(i), Version: 1})
	}
	payload := encodePayload(LineageRow{Refs: refs})
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := decodePayload(TagLineageRow, payload); err != nil {
			t.Fatal(err)
		}
	}); allocs > 8 {
		t.Errorf("decoding 1000 refs over 2 tables: %.0f allocations", allocs)
	}
}

func TestLineageFramesRejectCorruption(t *testing.T) {
	refs := []engine.TupleRef{{Table: "orders", Row: 42, Version: 7}, {Table: "lineitem", Row: 1, Version: 1}}
	rows := [][]sqlval.Value{{sqlval.NewInt(1)}, {sqlval.NewString("x")}}
	for _, m := range []Message{LineageRow{Refs: refs}, TupleValues{Refs: refs, Rows: rows}} {
		payload := encodePayload(m)
		// Every proper prefix is a truncated frame.
		for n := 0; n < len(payload); n++ {
			if _, err := decodePayload(m.tag(), payload[:n]); err == nil {
				t.Errorf("%T truncated to %d of %d bytes decoded", m, n, len(payload))
			}
		}
		if _, err := decodePayload(m.tag(), append(append([]byte(nil), payload...), 0)); err == nil {
			t.Errorf("%T with a trailing byte decoded", m)
		}
	}
	// A ref count the frame cannot hold is refused before anything is
	// allocated for it.
	for _, tag := range []byte{TagLineageRow, TagTupleValues} {
		if _, err := decodePayload(tag, []byte("\xff\xff\xff\xff\x0f\x01t\x01\x01")); err == nil {
			t.Errorf("%q: ref count beyond the frame decoded", tag)
		}
	}
	// A table-name length beyond the frame.
	if _, err := decodePayload(TagLineageRow, []byte("\x01\x7ft\x01\x01")); err == nil {
		t.Error("table name longer than the frame decoded")
	}
}

// FuzzLineage round-trips generated LineageRow and TupleValues frames and
// feeds the decoder their truncations.
func FuzzLineage(f *testing.F) {
	f.Add("lineitem", "orders", uint8(5), uint64(1), uint64(1), int64(7), "x")
	f.Add("", "t", uint8(40), uint64(1<<40), uint64(0), int64(-1), "")
	f.Add("same", "same", uint8(3), uint64(300), uint64(70000), int64(0), "\x00\xff")
	f.Fuzz(func(t *testing.T, tableA, tableB string, n uint8, row, version uint64, argInt int64, argStr string) {
		refs := make([]engine.TupleRef, n)
		rows := make([][]sqlval.Value, n)
		for i := range refs {
			table := tableA
			switch i % 3 {
			case 1:
				table = tableB
			case 2:
				table = fmt.Sprintf("%s%d", tableB, i%11)
			}
			refs[i] = engine.TupleRef{Table: table, Row: engine.RowID(row + uint64(i)), Version: version >> (i % 8)}
			rows[i] = []sqlval.Value{sqlval.NewInt(argInt + int64(i)), sqlval.NewString(argStr), sqlval.Null}
		}
		if n == 0 {
			refs, rows = nil, nil
		}
		lineageRoundTrip(t, refs, rows)
		payload := encodePayload(TupleValues{Refs: refs, Rows: rows})
		cut := int(version % uint64(len(payload)))
		if cut > 0 {
			if _, err := decodePayload(TagTupleValues, payload[:cut]); err == nil {
				t.Fatalf("TupleValues truncated to %d of %d bytes decoded", cut, len(payload))
			}
		}
	})
}
