package engine

import (
	"fmt"
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

// benchDB builds a two-table database with n fact rows.
func benchDB(b testing.TB, n int) *DB {
	b.Helper()
	db := NewDB(nil)
	if _, err := db.ExecScript(`
		CREATE TABLE dim (id INTEGER PRIMARY KEY, name TEXT);
		CREATE TABLE fact (id INTEGER PRIMARY KEY, fk INTEGER, v FLOAT, tag TEXT);`,
		ExecOptions{}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := db.InsertRowDirect("dim", []sqlval.Value{
			sqlval.NewInt(int64(i)), sqlval.NewString(fmt.Sprintf("dim-%03d", i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if _, err := db.InsertRowDirect("fact", []sqlval.Value{
			sqlval.NewInt(int64(i)), sqlval.NewInt(int64(i % 64)),
			sqlval.NewFloat(float64(i%1000) / 10), sqlval.NewString(fmt.Sprintf("tag-%06d", i)),
		}); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// benchWideDB is benchDB plus `wide`: fact's four columns followed by twelve
// more, the shape of a TPC-H lineitem row. With 4 columns the cost of
// copying a row a query then filters out, or reads 2 columns of, hides in
// the noise; with 16 it is the query.
func benchWideDB(b testing.TB, n int) *DB {
	b.Helper()
	db := benchDB(b, n)
	ddl := "CREATE TABLE wide (id INTEGER PRIMARY KEY, fk INTEGER, v FLOAT, tag TEXT"
	for c := 0; c < 12; c++ {
		ddl += fmt.Sprintf(", p%d %s", c, []string{"INTEGER", "FLOAT", "TEXT"}[c%3])
	}
	if _, err := db.Exec(ddl+")", ExecOptions{}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := []sqlval.Value{
			sqlval.NewInt(int64(i)), sqlval.NewInt(int64(i % 64)),
			sqlval.NewFloat(float64(i%1000) / 10), sqlval.NewString(fmt.Sprintf("tag-%06d", i)),
		}
		for c := 0; c < 12; c++ {
			switch c % 3 {
			case 0:
				row = append(row, sqlval.NewInt(int64(i*c)))
			case 1:
				row = append(row, sqlval.NewFloat(float64(i)/float64(c)))
			default:
				row = append(row, sqlval.NewString(fmt.Sprintf("pad-%d-%d", c, i%97)))
			}
		}
		if _, err := db.InsertRowDirect("wide", row); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func benchQuery(b *testing.B, sql string, lineage bool) {
	benchQueryOn(b, benchDB(b, 10000), sql, lineage)
}

func benchWideQuery(b *testing.B, sql string, lineage bool) {
	benchQueryOn(b, benchWideDB(b, 10000), sql, lineage)
}

func benchQueryOn(b *testing.B, db *DB, sql string, lineage bool) {
	opts := ExecOptions{WithLineage: lineage}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(sql, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectFilter(b *testing.B) {
	benchQuery(b, "SELECT id, v FROM fact WHERE v > 50", false)
}

func BenchmarkSelectFilterWithLineage(b *testing.B) {
	benchQuery(b, "SELECT id, v FROM fact WHERE v > 50", true)
}

func BenchmarkHashJoin(b *testing.B) {
	benchQuery(b, "SELECT f.id, d.name FROM fact f, dim d WHERE f.fk = d.id AND f.v > 90", false)
}

func BenchmarkHashJoinWithLineage(b *testing.B) {
	benchQuery(b, "SELECT f.id, d.name FROM fact f, dim d WHERE f.fk = d.id AND f.v > 90", true)
}

func BenchmarkSelectFilterWide(b *testing.B) {
	benchWideQuery(b, "SELECT id, v FROM wide WHERE v > 50", false)
}

func BenchmarkSelectFilterWideWithLineage(b *testing.B) {
	benchWideQuery(b, "SELECT id, v FROM wide WHERE v > 50", true)
}

func BenchmarkHashJoinWide(b *testing.B) {
	benchWideQuery(b, "SELECT f.id, d.name FROM wide f, dim d WHERE f.fk = d.id AND f.v > 90", false)
}

func BenchmarkHashJoinWideWithLineage(b *testing.B) {
	benchWideQuery(b, "SELECT f.id, d.name FROM wide f, dim d WHERE f.fk = d.id AND f.v > 90", true)
}

func BenchmarkTopN(b *testing.B) {
	benchWideQuery(b, "SELECT id, v FROM wide ORDER BY v DESC LIMIT 10", false)
}

func BenchmarkLimitScan(b *testing.B) {
	benchWideQuery(b, "SELECT id, v FROM wide WHERE v > 90 LIMIT 10", false)
}

func BenchmarkInList1000(b *testing.B) {
	members := make([]string, 1000)
	for i := range members {
		members[i] = fmt.Sprint(7 * i)
	}
	benchQuery(b, "SELECT id FROM fact WHERE id IN ("+strings.Join(members, ", ")+")", false)
}

func BenchmarkGroupByAggregate(b *testing.B) {
	benchQuery(b, "SELECT fk, count(*), SUM(v), AVG(v) FROM fact GROUP BY fk", false)
}

func BenchmarkGroupByAggregateWithLineage(b *testing.B) {
	benchQuery(b, "SELECT fk, count(*), SUM(v), AVG(v) FROM fact GROUP BY fk", true)
}

func BenchmarkLikeScan(b *testing.B) {
	benchQuery(b, "SELECT id FROM fact WHERE tag LIKE '%00001%'", false)
}

func BenchmarkInsert(b *testing.B) {
	db := benchDB(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf("INSERT INTO fact VALUES (%d, %d, 1.5, 'x')", i+1000000, i%64)
		if _, err := db.Exec(sql, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateWithReenactment(b *testing.B) {
	db := benchDB(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sql := fmt.Sprintf("UPDATE fact SET v = v + 1 WHERE id = %d", i%10000)
		if _, err := db.Exec(sql, ExecOptions{WithLineage: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// touchAll makes every table differ from whatever file it equals, so that
// the next checkpoint encodes and writes all of them: the whole-database
// stop, which the sync rule otherwise reduces to the tables that changed
// (startstop_bench_test.go measures that).
func touchAll(db *DB) {
	for _, t := range db.tableList() {
		t.touch()
	}
}

func BenchmarkCheckpoint(b *testing.B) {
	db := benchDB(b, 10000)
	fs := newMapFS()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		touchAll(db)
		if err := db.Checkpoint(fs, "/data"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadDir(b *testing.B) {
	db := benchDB(b, 10000)
	fs := newMapFS()
	if err := db.Checkpoint(fs, "/data"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db2 := NewDB(nil)
		if err := db2.LoadDir(fs, "/data"); err != nil {
			b.Fatal(err)
		}
	}
}

// The two above run on `fact`, 10 k rows of 4 columns: it fits in cache and
// shows nothing of what a server start or stop costs. The Wide pair runs on
// a lineitem-shaped table, where bytes and heap objects per stored row are
// the cost.
func BenchmarkCheckpointWide(b *testing.B) {
	db := benchWideDB(b, 10000)
	fs := newMapFS()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		touchAll(db)
		if err := db.Checkpoint(fs, "/data"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadDirWide(b *testing.B) {
	db := benchWideDB(b, 10000)
	fs := newMapFS()
	if err := db.Checkpoint(fs, "/data"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db2 := NewDB(nil)
		if err := db2.LoadDir(fs, "/data"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanWideCold scans a table far larger than a core's caches (200 k
// rows × 16 values: ≈ 100 MB of values at 32 bytes each, against 2 MiB of L2
// and whatever share of the host's L3 a small guest keeps), so every pass
// streams the rows from memory — the regime the TPC-H scans of the
// repository benchmark run in, which the 10 k-row tables above never reach.
func BenchmarkScanWideCold(b *testing.B) {
	db := benchWideDB(b, 200000)
	b.ReportAllocs()
	benchQueryOn(b, db, "SELECT id, v FROM wide WHERE v > 99", false)
}

func BenchmarkStatementOverhead(b *testing.B) {
	// Fixed per-statement cost (parse + dispatch + clock ticks).
	db := benchDB(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec("SELECT 1", ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWALRecord is the record of a committed UPDATE of ten orders-shaped
// rows — ten end marks, ten new versions and the statement's history entry.
func benchWALRecord() []redoEntry {
	var redo []redoEntry
	for i := 0; i < 10; i++ {
		id := RowID(4000 + i)
		redo = append(redo, redoEntry{kind: walEnd, table: "orders", id: id, version: 1, end: 12040})
		redo = append(redo, redoEntry{kind: walInsert, table: "orders", id: id, version: 12040, proc: "p3", stmt: 812,
			vals: []sqlval.Value{
				sqlval.NewInt(int64(id)), sqlval.NewInt(1201), sqlval.NewString("O"), sqlval.NewFloat(173665.47),
				sqlval.NewDateDays(9497), sqlval.NewString("5-LOW"), sqlval.NewString("Clerk#000000951"),
				sqlval.NewInt(0), sqlval.NewString("nstructions sleep furiously among "),
			}})
	}
	return append(redo, redoEntry{kind: walStmt, table: "UPDATE", id: 12039, version: 12040, end: 12041,
		proc: "UPDATE orders SET o_orderstatus = ? WHERE o_orderkey BETWEEN ? AND ?", stmt: 10,
		vals: []sqlval.Value{sqlval.NewString("O"), sqlval.NewInt(4000), sqlval.NewInt(4009)}})
}

// BenchmarkDecodeWALRecord decodes benchWALRecord, what recovery and a
// replica decode per transaction.
func BenchmarkDecodeWALRecord(b *testing.B) {
	payload := encodeWALTxn(77, benchWALRecord())
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeWALTxn(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeWALRecord encodes benchWALRecord, what every commit does
// before its record joins the group-commit batch.
func BenchmarkEncodeWALRecord(b *testing.B) {
	redo := benchWALRecord()
	b.SetBytes(int64(len(encodeWALTxn(77, redo))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeWALTxn(77, redo)
	}
}
