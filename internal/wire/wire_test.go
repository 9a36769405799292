package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"ldv/internal/engine"
	"ldv/internal/obs"
	"ldv/internal/sqlval"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatalf("Write(%#v): %v", m, err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read(%#v): %v", m, err)
	}
	if buf.Len() != 0 {
		t.Fatalf("trailing bytes after %#v", m)
	}
	return out
}

func TestRoundTripAllMessages(t *testing.T) {
	refs := []engine.TupleRef{
		{Table: "orders", Row: 42, Version: 7},
		{Table: "lineitem", Row: 1, Version: 1},
	}
	msgs := []Message{
		Startup{Proc: "p12", Database: "tpch"},
		Query{SQL: "SELECT 1", WithLineage: true},
		Query{SQL: "SELECT 2"},
		RowDescription{Columns: []string{"a", "b"}},
		RowDescription{Columns: []string{}},
		DataRow{Values: []sqlval.Value{sqlval.NewInt(1), sqlval.Null, sqlval.NewString("x")}},
		LineageRow{Refs: refs},
		LineageRow{},
		CommandComplete{RowsAffected: 3, StmtID: 9, Start: 10, End: 20, ReadRefs: refs, WrittenRefs: refs[:1]},
		CommandComplete{},
		Error{Message: "boom"},
		Ready{},
		Terminate{},
		Stats{},
		Stats{Kind: StatsKindTraces},
		StatsResult{JSON: []byte(`{"counters":{"engine.stmts":7}}`)},
		Subscribe{ReplicaID: "replica-1"},
		Subscribe{},
		SnapshotChunk{Table: "orders", Data: []byte{1, 2, 3}},
		SnapshotChunk{Done: true, CutSeq: 99},
		WALSegment{FirstSeq: 7, PrimaryTS: 123, Records: [][]byte{{0xAA}, {0xBB, 0xCC}, {0xDD}}},
		WALSegment{FirstSeq: 8, PrimaryTS: 124},
		ReplicaStatus{ID: "replica-1", AppliedSeq: 41, AppliedTS: 120},
		CommandComplete{RowsAffected: 1, StmtID: 3, CommitSeq: 17},
		Query{SQL: "SELECT 3", MinApplied: 55},
		Parse{Name: "s1", SQL: "SELECT * FROM nation WHERE n_nationkey = ?"},
		Parse{},
		ParseComplete{Name: "s1", NumParams: 2, Fingerprint: "deadbeef"},
		ParseComplete{},
		Bind{Stmt: "s1", Args: []sqlval.Value{sqlval.NewInt(7), sqlval.Null, sqlval.NewString("x")}},
		Execute{Stmt: "s1", Tag: 3, WithLineage: true, MinApplied: 12},
		Execute{Stmt: "s1", Trace: testSpanContext()},
		Execute{},
		CloseStmt{Name: "s1"},
		CommandComplete{RowsAffected: 1, StmtID: 4, Tag: 9},
		CommandComplete{Fingerprint: "ab12", Tag: 2, CommitSeq: 5},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		switch want := m.(type) {
		case Bind:
			g := got.(Bind)
			if g.Stmt != want.Stmt || len(g.Args) != len(want.Args) {
				t.Fatalf("Bind mismatch: got %#v, want %#v", g, want)
			}
			for i := range g.Args {
				if !g.Args[i].Equal(want.Args[i]) {
					t.Fatalf("Bind arg %d mismatch", i)
				}
			}
		case DataRow:
			g := got.(DataRow)
			if len(g.Values) != len(want.Values) {
				t.Fatalf("DataRow arity mismatch")
			}
			for i := range g.Values {
				if !g.Values[i].Equal(want.Values[i]) {
					t.Fatalf("DataRow value %d mismatch", i)
				}
			}
		default:
			if !reflect.DeepEqual(got, m) {
				t.Errorf("round trip: got %#v, want %#v", got, m)
			}
		}
	}
}

func TestReadErrors(t *testing.T) {
	// Unknown tag.
	var buf bytes.Buffer
	buf.Write([]byte{'?', 0, 0, 0, 0})
	if _, err := Read(&buf); err == nil {
		t.Error("unknown tag must fail")
	}
	// Oversized frame.
	buf.Reset()
	buf.Write([]byte{'Q', 0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Read(&buf); err == nil {
		t.Error("oversized frame must fail")
	}
	// Truncated payload.
	buf.Reset()
	buf.Write([]byte{'Q', 0, 0, 0, 10, 1, 2})
	if _, err := Read(&buf); err == nil {
		t.Error("truncated payload must fail")
	}
	// Truncated string inside payload.
	buf.Reset()
	buf.Write([]byte{'E', 0, 0, 0, 1, 50})
	if _, err := Read(&buf); err == nil {
		t.Error("bad string must fail")
	}
	// Trailing junk inside frame (one byte is the legal InTxn flag; a second
	// byte is junk).
	buf.Reset()
	buf.Write([]byte{'Z', 0, 0, 0, 2, 0, 0})
	if _, err := Read(&buf); err == nil {
		t.Error("trailing bytes must fail")
	}
	// EOF.
	buf.Reset()
	if _, err := Read(&buf); err == nil {
		t.Error("EOF must fail")
	}
}

// appendString spells the string encoding apart from the encoder, for the
// frames the pinned tests build by hand.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

// claimPayload is an n-byte payload: prefix, then an element count as large
// as the bytes after it — the most a check of one byte per element lets
// through — then those bytes, none of which starts a valid element.
func claimPayload(prefix []byte, n int) []byte {
	rest := n - len(prefix) - 3 // a count below 1<<21 takes three bytes
	b := binary.AppendUvarint(append([]byte(nil), prefix...), uint64(rest))
	return append(b, bytes.Repeat([]byte{0xff}, rest)...)
}

// TestDecodeAllocatesInProportion: for every kind with an element count, a
// frame whose count claims more than its bytes can hold is refused, and
// refusing it allocates at most a small constant times the frame's size —
// whatever the count claimed.
func TestDecodeAllocatesInProportion(t *testing.T) {
	const n, perByte = 64 << 10, 12
	for _, c := range []struct {
		name   string
		tag    byte
		prefix []byte
	}{
		{"RowDescription columns", TagRowDescription, nil},
		{"DataRow values", TagDataRow, nil},
		{"LineageRow refs", TagLineageRow, nil},
		{"TupleValues refs", TagTupleValues, nil},
		{"CommandComplete read refs", TagCommandComplete, []byte{0, 0, 0, 0}},
		{"CommandComplete written refs", TagCommandComplete, []byte{0, 0, 0, 0, 0}},
		{"WALSegment records", TagWALSegment, []byte{0, 0}},
		{"Bind args", TagBind, []byte{0}},
	} {
		payload := claimPayload(c.prefix, n)
		var err error
		grew := allocated(func() { _, err = decodePayload(c.tag, payload) })
		if err == nil {
			t.Errorf("%s: a count beyond the frame decoded", c.name)
		}
		if grew > perByte*n {
			t.Errorf("%s: refusing a %d-byte frame allocated %d bytes (%.1f per byte)", c.name, n, grew, float64(grew)/n)
		}
	}
}

type quickRefs struct{ Refs []engine.TupleRef }

func (quickRefs) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(5)
	refs := make([]engine.TupleRef, n)
	for i := range refs {
		refs[i] = engine.TupleRef{
			Table:   string(rune('a' + r.Intn(26))),
			Row:     engine.RowID(r.Uint64() % 100000),
			Version: r.Uint64() % 100000,
		}
	}
	return reflect.ValueOf(quickRefs{Refs: refs})
}

func TestQuickCommandCompleteRoundTrip(t *testing.T) {
	f := func(affected int32, stmt int64, start, end uint32, rr, wr quickRefs) bool {
		m := CommandComplete{
			RowsAffected: int(affected), StmtID: stmt,
			Start: uint64(start), End: uint64(end),
			ReadRefs: rr.Refs, WrittenRefs: wr.Refs,
		}
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		g := got.(CommandComplete)
		if g.RowsAffected != m.RowsAffected || g.StmtID != m.StmtID || g.Start != m.Start || g.End != m.End {
			return false
		}
		return len(g.ReadRefs) == len(m.ReadRefs) && len(g.WrittenRefs) == len(m.WrittenRefs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPipeConversation(t *testing.T) {
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() {
		m, err := Read(server)
		if err != nil {
			done <- err
			return
		}
		if q, ok := m.(Query); !ok || q.SQL != "SELECT 1" {
			done <- err
			return
		}
		err = Write(server, Ready{})
		done <- err
	}()
	if err := Write(client, Query{SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	if m, err := Read(client); err != nil {
		t.Fatal(err)
	} else if _, ok := m.(Ready); !ok {
		t.Fatalf("got %#v", m)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestWireMetrics(t *testing.T) {
	outMsgs := obs.GetCounter("wire.out.msgs.Stats")
	inMsgs := obs.GetCounter("wire.in.msgs.Stats")
	outBytes := obs.GetCounter("wire.out.bytes")
	m0, i0, b0 := outMsgs.Load(), inMsgs.Load(), outBytes.Load()

	var buf bytes.Buffer
	if err := Write(&buf, Stats{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatal(err)
	}
	if outMsgs.Load() != m0+1 {
		t.Fatalf("wire.out.msgs.Stats did not increment: %d -> %d", m0, outMsgs.Load())
	}
	if inMsgs.Load() != i0+1 {
		t.Fatalf("wire.in.msgs.Stats did not increment: %d -> %d", i0, inMsgs.Load())
	}
	// A Stats frame is tag + length + kind = 6 bytes on the wire.
	if got := outBytes.Load() - b0; got != 6 {
		t.Fatalf("wire.out.bytes delta = %d, want 6", got)
	}
}
