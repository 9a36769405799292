package wire

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/frames.golden from goldenFrames")

const goldenFramesPath = "testdata/frames.golden"

// goldenFrames is a frame of every kind, with each field of a kind zero and
// non-zero somewhere: Query with each of its fields set alone and all
// together, multi-byte text, an empty string, an empty WAL record.
func goldenFrames() []struct {
	name string
	m    Message
} {
	sc := testSpanContext()
	refs := []engine.TupleRef{{Table: "orders", Row: 300, Version: 70000}, {Table: "", Row: 0, Version: 1}}
	row := []sqlval.Value{
		sqlval.NewInt(-7), sqlval.NewInt(1 << 40), sqlval.NewFloat(-0.25), sqlval.NewString("naïve 表"),
		sqlval.NewString(""), sqlval.NewBool(true), sqlval.NewDateDays(-1), sqlval.Null,
	}
	return []struct {
		name string
		m    Message
	}{
		{"startup", Startup{Proc: "p12", Database: "tpch"}},
		{"query", Query{SQL: "SELECT 1"}},
		{"query_lineage", Query{SQL: "SELECT * FROM naïve", WithLineage: true}},
		{"query_trace", Query{SQL: "SELECT 1", Trace: sc}},
		{"query_min_applied", Query{SQL: "SELECT 1", MinApplied: 300}},
		{"query_trace_min_applied", Query{SQL: "SELECT 1", Trace: sc, MinApplied: 7}},
		{"query_as_of", Query{SQL: "SELECT 1", AsOf: 70000}},
		{"query_all", Query{SQL: "SELECT 2", WithLineage: true, Trace: sc, MinApplied: 5, AsOf: 9}},
		{"row_description", RowDescription{Columns: []string{"id", "naïve", ""}}},
		{"row_description_none", RowDescription{}},
		{"data_row", DataRow{Values: row}},
		{"data_row_none", DataRow{}},
		{"lineage_row", LineageRow{Refs: refs}},
		{"tuple_values", TupleValues{Refs: refs, Rows: [][]sqlval.Value{row, row[:1]}}},
		{"command_complete", CommandComplete{RowsAffected: -1, StmtID: -3, Start: 10, End: 300,
			ReadRefs: refs, WrittenRefs: refs[:1], CommitSeq: 17, Fingerprint: "ab12", Tag: 9}},
		{"command_complete_none", CommandComplete{}},
		{"error", Error{Message: "boom: naïve"}},
		{"ready", Ready{}},
		{"ready_in_txn", Ready{InTxn: true}},
		{"terminate", Terminate{}},
		{"stats", Stats{}},
		{"stats_traces", Stats{Kind: StatsKindTraces}},
		{"stats_result", StatsResult{JSON: []byte(`{"counters":{"engine.stmts":7}}`)}},
		{"subscribe", Subscribe{ReplicaID: "replica-1"}},
		{"snapshot_chunk", SnapshotChunk{Table: "orders", CutSeq: 0, Data: []byte{1, 2, 3}}},
		{"snapshot_done", SnapshotChunk{Done: true, CutSeq: 99}},
		{"wal_segment", WALSegment{FirstSeq: 7, PrimaryTS: 123, Records: [][]byte{{0xAA}, nil, {0xBB, 0xCC}}}},
		{"wal_segment_heartbeat", WALSegment{FirstSeq: 8, PrimaryTS: 124}},
		{"replica_status", ReplicaStatus{ID: "replica-1", AppliedSeq: 300, AppliedTS: 4}},
		{"parse", Parse{Name: "s1", SQL: "SELECT ?"}},
		{"parse_complete", ParseComplete{Name: "s1", NumParams: 1, Fingerprint: "ab12"}},
		{"bind", Bind{Stmt: "s1", Args: row}},
		{"execute", Execute{Stmt: "s1", Tag: 300, WithLineage: true, Trace: sc, MinApplied: 5}},
		{"close_stmt", CloseStmt{Name: "s1"}},
	}
}

// TestFramesGolden pins the frames of goldenFrames byte for byte, header
// included, against testdata/frames.golden (one line per frame: name, then
// hex), and reads every pinned frame back to a message that writes the same
// bytes. Regenerate the file only for a deliberate protocol change.
func TestFramesGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range goldenFrames() {
		var buf bytes.Buffer
		if err := Write(&buf, c.m); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %x\n", c.name, buf.Bytes())
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFramesPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenFramesPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d frames, %s pins %d", len(gotLines)-1, goldenFramesPath, len(wantLines)-1)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("frame changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
	}
	for _, line := range wantLines[:len(wantLines)-1] {
		name, hexFrame, _ := strings.Cut(line, " ")
		frame, err := hex.DecodeString(hexFrame)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := Read(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("%s: pinned frame does not read: %v", name, err)
		}
		var again bytes.Buffer
		if err := Write(&again, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), frame) {
			t.Errorf("%s: pinned frame reads as %#v, which writes %x", name, m, again.Bytes())
		}
	}
}

// TestFramePrefixesRejected: a frame cut anywhere is an error. Every strict
// prefix of every golden frame's payload fails to decode, because every
// field of every kind is always present and no field's length is implied by
// where the frame ends. The golden frames cover every kind.
func TestFramePrefixesRejected(t *testing.T) {
	kinds := map[byte]bool{}
	for _, c := range goldenFrames() {
		kinds[c.m.tag()] = true
		payload := encodePayload(c.m)
		for n := 0; n < len(payload); n++ {
			if m, err := decodePayload(c.m.tag(), payload[:n]); err == nil {
				t.Errorf("%s cut to %d of %d payload bytes decodes as %#v", c.name, n, len(payload), m)
			}
		}
	}
	for _, tag := range Tags() {
		if !kinds[tag] {
			t.Errorf("no golden frame of kind %s", TagName(tag))
		}
	}
}
