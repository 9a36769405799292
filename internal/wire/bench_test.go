package wire

import (
	"bytes"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

// benchRead times Read of one frame of m, the frame decoder every client,
// server and replica connection runs on each message.
func benchRead(b *testing.B, m Message) {
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		b.Fatal(err)
	}
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		if _, err := Read(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadDataRow: one result row of an orders-shaped table.
func BenchmarkReadDataRow(b *testing.B) {
	benchRead(b, DataRow{Values: []sqlval.Value{
		sqlval.NewInt(4711), sqlval.NewInt(1201), sqlval.NewString("O"), sqlval.NewFloat(173665.47),
		sqlval.NewDateDays(9497), sqlval.NewString("5-LOW"), sqlval.NewString("Clerk#000000951"),
		sqlval.NewInt(0), sqlval.NewString("nstructions sleep furiously among "),
	}})
}

// BenchmarkReadCommandComplete: the end of an audited UPDATE — ten tuple
// versions read, one written, a commit sequence, a fingerprint and a
// pipeline tag.
func BenchmarkReadCommandComplete(b *testing.B) {
	read := make([]engine.TupleRef, 10)
	for i := range read {
		read[i] = engine.TupleRef{Table: "orders", Row: engine.RowID(4000 + i), Version: 12000 + uint64(i)}
	}
	benchRead(b, CommandComplete{
		RowsAffected: 1, StmtID: 812, Start: 12040, End: 12041,
		ReadRefs: read, WrittenRefs: read[:1], CommitSeq: 3051, Fingerprint: "9c1f2a7e40b3d5e8", Tag: 17,
	})
}

// BenchmarkReadLineageRow1000: the lineage of one wide result row, 1 000
// versions over two tables.
func BenchmarkReadLineageRow1000(b *testing.B) {
	refs := make([]engine.TupleRef, 1000)
	for i := range refs {
		refs[i] = engine.TupleRef{Table: []string{"lineitem", "orders"}[i%2], Row: engine.RowID(i * 30), Version: 1}
	}
	benchRead(b, LineageRow{Refs: refs})
}
