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

// BenchmarkReadCommandComplete: the end of an audited UPDATE — one tuple
// version written, a commit sequence, a fingerprint and a pipeline tag.
func BenchmarkReadCommandComplete(b *testing.B) {
	written := []engine.TupleRef{{Table: "orders", Row: 4000, Version: 12000}}
	benchRead(b, CommandComplete{
		RowsAffected: 1, StmtID: 812, Start: 12040, End: 12041,
		WrittenRefs: written, CommitSeq: 3051, Fingerprint: "9c1f2a7e40b3d5e8", Tag: 17,
	})
}

// BenchmarkReadProvenance: the provenance of an audited wide query — 1 000
// orders-shaped versions over two tables and 50 result rows whose lineage
// names each of them once.
func BenchmarkReadProvenance(b *testing.B) {
	refs := make([]engine.TupleRef, 1000)
	rows := make([][]sqlval.Value, len(refs))
	lineage := make([][]int32, 50)
	for i := range refs {
		refs[i] = engine.TupleRef{Table: []string{"lineitem", "orders"}[i/500], Row: engine.RowID(i * 30), Version: 1}
		rows[i] = []sqlval.Value{
			sqlval.NewInt(int64(i)), sqlval.NewInt(1201), sqlval.NewString("O"), sqlval.NewFloat(173665.47),
			sqlval.NewDateDays(9497), sqlval.NewString("5-LOW"), sqlval.NewString("Clerk#000000951"),
		}
		lineage[i%50] = append(lineage[i%50], int32(i))
	}
	benchRead(b, Provenance{Versions: engine.NewVersionSet(refs, rows), Lineage: lineage})
}
