package wire

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

// provenanceOf is the Provenance frame a server sends for a version set of
// refs (in set order) with values rows, and lineage.
func provenanceOf(refs []engine.TupleRef, rows [][]sqlval.Value, lineage [][]int32) Provenance {
	return Provenance{Versions: engine.NewVersionSet(refs, rows), Lineage: lineage}
}

// TestLineageEncodingsPinned pins the Provenance payload byte for byte: the
// refs as a counted list, each version's EncodeRow image, then the position
// lists. The decoder shares table-name strings between a frame's refs and the
// encoder reserves its buffer up front; neither may move a byte on the wire.
func TestLineageEncodingsPinned(t *testing.T) {
	row := func(n int64, s string) []sqlval.Value {
		return []sqlval.Value{sqlval.NewInt(n), sqlval.NewString(s), sqlval.Null}
	}
	refs := []engine.TupleRef{{Table: "a", Row: 1, Version: 1}, {Table: "a", Row: 300, Version: 70000}, {Table: "b", Row: 1, Version: 1}}
	rows := [][]sqlval.Value{row(1, "x"), row(-2, ""), row(300, "yz")}
	cases := []struct {
		m    Message
		want []byte
	}{
		{Provenance{}, []byte{0, 0}},
		// A DML statement's read set: versions, no lists.
		{provenanceOf(refs[:1], rows[:1], nil), append(append([]byte("\x01\x01a\x01\x01"), sqlval.EncodeRow(nil, rows[0])...), 0)},
		// Rows with no lineage, one version, several, multi-byte varints.
		{provenanceOf(refs, rows, [][]int32{nil, {1}, {2, 0, 1}}),
			append(append(append(append([]byte("\x03\x01a\x01\x01\x01a\xac\x02\xf0\xa2\x04\x01b\x01\x01"),
				sqlval.EncodeRow(nil, rows[0])...),
				sqlval.EncodeRow(nil, rows[1])...),
				sqlval.EncodeRow(nil, rows[2])...),
				"\x03\x00\x01\x01\x03\x02\x00\x01"...)},
	}
	for _, c := range cases {
		if got := encodePayload(c.m); !bytes.Equal(got, c.want) {
			t.Errorf("encodePayload(%#v) = %x, want %x", c.m, got, c.want)
		}
	}
}

// sameProvenance reports whether two frames carry the same versions, values
// and lineage, whatever form each set keeps its values in.
func sameProvenance(a, b Provenance) bool {
	if !slices.Equal(a.Versions.Refs(), b.Versions.Refs()) || !slices.EqualFunc(a.Lineage, b.Lineage, slices.Equal) {
		return false
	}
	av, bv := a.Versions.Values(), b.Versions.Values()
	if len(av) != len(bv) {
		return false
	}
	for i := range av {
		if len(av[i]) != len(bv[i]) {
			return false
		}
		for j := range av[i] {
			if x, y := av[i][j], bv[i][j]; !x.Equal(y) && !(x.IsNull() && y.IsNull()) {
				return false
			}
		}
	}
	return true
}

// provenanceRoundTrip asserts decode(encode(m)) carries what m does, and that
// the decoded frame writes back the bytes it was read from.
func provenanceRoundTrip(t *testing.T, m Provenance) {
	t.Helper()
	got := roundTrip(t, m).(Provenance)
	if !sameProvenance(got, m) {
		t.Fatalf("Provenance round trip: got %#v, want %#v", got, m)
	}
	if again := encodePayload(got); !bytes.Equal(again, encodePayload(m)) {
		t.Fatalf("a decoded Provenance frame re-encodes to other bytes")
	}
	for i := range got.Versions.Refs() {
		want := sqlval.EncodeRow(nil, m.Versions.Values()[i])
		if img := got.Versions.AppendRow(nil, i); !bytes.Equal(img, want) {
			t.Fatalf("version %d keeps image %x, sent %x", i, img, want)
		}
	}
}

// wideProvenance is a frame of n versions over tables, each version of cols
// columns whose TEXT values are text, and one lineage list per row naming a
// stride of the versions.
func wideProvenance(tables []string, n, cols, rows int, text string) Provenance {
	refs := make([]engine.TupleRef, n)
	vals := make([][]sqlval.Value, n)
	for i := range refs {
		refs[i] = engine.TupleRef{Table: tables[i*len(tables)/n], Row: engine.RowID(i * 30), Version: uint64(i%7 + 1)}
		row := make([]sqlval.Value, cols)
		for j := range row {
			if j%2 == 0 {
				row[j] = sqlval.NewInt(int64(i*j) - 5)
			} else {
				row[j] = sqlval.NewString(text)
			}
		}
		vals[i] = row
	}
	lineage := make([][]int32, rows)
	for r := range lineage {
		for p := r; p < n; p += rows {
			lineage[r] = append(lineage[r], int32(p))
		}
	}
	return provenanceOf(refs, vals, lineage)
}

func TestLineageFramesRoundTrip(t *testing.T) {
	// More distinct tables than the decoder remembers, the empty name among
	// them; a row without lineage; an empty frame; a read set without lists.
	var tables []string
	for i := 0; i < 13; i++ {
		tables = append(tables, fmt.Sprintf("t%02d", i))
	}
	tables[0] = ""
	wide := wideProvenance(tables, 200, 3, 7, "naïve")
	wide.Lineage[3] = nil
	provenanceRoundTrip(t, wide)
	provenanceRoundTrip(t, wideProvenance([]string{"x"}, 1, 1, 1, ""))
	provenanceRoundTrip(t, Provenance{})
	provenanceRoundTrip(t, Provenance{Versions: wide.Versions})

	// Decoding keeps every image encoded: what it allocates is a constant
	// number of objects — the refs, the image bounds, the lists, one string
	// per table, the message — whatever the versions' column count and TEXT
	// values. (Table names of 16 bytes and more keep the count exact: the
	// runtime packs smaller pointer-free allocations together.)
	tables = []string{"lineitem_archive", "orders_archive_2"}
	var allocs []float64
	for _, shape := range []struct{ cols, textLen int }{{1, 0}, {4, 3}, {16, 40}, {64, 500}} {
		payload := encodePayload(wideProvenance(tables, 1000, shape.cols, 50, strings.Repeat("y", shape.textLen)))
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := decodePayload(TagProvenance, payload); err != nil {
				t.Fatal(err)
			}
		}))
	}
	for _, a := range allocs {
		if a != allocs[0] || a > 8 {
			t.Fatalf("decoding 1000 versions of 1, 4, 16 and 64 columns: %v allocations; want one small constant", allocs)
		}
	}
}

func TestLineageFramesRejectCorruption(t *testing.T) {
	refs := []engine.TupleRef{{Table: "lineitem", Row: 1, Version: 1}, {Table: "orders", Row: 42, Version: 7}}
	rows := [][]sqlval.Value{{sqlval.NewInt(1)}, {sqlval.NewString("x")}}
	payload := encodePayload(provenanceOf(refs, rows, [][]int32{{1, 0}}))
	// Every proper prefix is a truncated frame; a trailing byte is refused.
	for n := 0; n < len(payload); n++ {
		if _, err := decodePayload(TagProvenance, payload[:n]); err == nil {
			t.Errorf("Provenance truncated to %d of %d bytes decoded", n, len(payload))
		}
	}
	if _, err := decodePayload(TagProvenance, append(append([]byte(nil), payload...), 0)); err == nil {
		t.Error("Provenance with a trailing byte decoded")
	}
	for _, c := range []struct {
		name    string
		payload string
	}{
		// A ref count the frame cannot hold is refused before anything is
		// allocated for it.
		{"ref count beyond the frame", "\xff\xff\xff\xff\x0f\x01t\x01\x01"},
		{"table name longer than the frame", "\x01\x7ft\x01\x01"},
		{"refs out of set order", "\x02\x01b\x01\x01\x01a\x01\x01\x01\x00\x01\x00\x00"},
		{"a version twice", "\x02\x01a\x01\x01\x01a\x01\x01\x01\x00\x01\x00\x00"},
		{"row image with an unknown kind", "\x01\x01a\x01\x01\x01\xee\x00"},
		{"row image with an overlong count", "\x01\x01a\x01\x01\x80\x00\x00"},
		{"position at the version count", "\x01\x01a\x01\x01\x00\x01\x01\x01"},
		{"position with no versions", "\x00\x01\x01\x00"},
		{"list count beyond the frame", "\x00\x05\x00"},
	} {
		if m, err := decodePayload(TagProvenance, []byte(c.payload)); err == nil {
			t.Errorf("%s: decoded as %#v", c.name, m)
		}
	}
}

// FuzzLineage round-trips generated Provenance frames — tables, values and
// position lists — and feeds the decoder their truncations and a position
// moved past the version count.
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
		// The set orders and deduplicates; lists name positions in it.
		m := Provenance{Versions: engine.NewVersionSet(refs, rows)}
		size := m.Versions.Len()
		for r := 0; r < int(version%5) && size > 0; r++ {
			var list []int32
			for p := r; p < size; p += r + 1 {
				list = append(list, int32(p))
			}
			m.Lineage = append(m.Lineage, list)
		}
		provenanceRoundTrip(t, m)
		payload := encodePayload(m)
		if cut := int(version % uint64(len(payload))); cut > 0 {
			if _, err := decodePayload(TagProvenance, payload[:cut]); err == nil {
				t.Fatalf("Provenance truncated to %d of %d bytes decoded", cut, len(payload))
			}
		}
		if len(m.Lineage) > 0 && len(m.Lineage[0]) > 0 {
			m.Lineage[0][0] = int32(size)
			if _, err := decodePayload(TagProvenance, encodePayload(m)); err == nil {
				t.Fatalf("position %d of a %d-version set decoded", size, size)
			}
		}
	})
}
