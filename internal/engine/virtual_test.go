package engine

import (
	"fmt"
	"strings"
	"testing"

	"ldv/internal/obs"
	"ldv/internal/sqlval"
)

func TestVirtualTableCustomProvider(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY)")
	db.RegisterVirtualTable(&VirtualTable{
		Name:   "ldv_stat_custom",
		Schema: viewSchema(textCol("k"), intCol("v")),
		Rows: func() [][]sqlval.Value {
			return [][]sqlval.Value{
				{sqlval.NewString("x"), sqlval.NewInt(1)},
				{sqlval.NewString("y"), sqlval.NewInt(2)},
			}
		},
	})
	// Filters, projection, ORDER BY, and joins against real tables all work.
	res := mustExec(t, db, "SELECT v, k FROM ldv_stat_custom WHERE v > 1 ORDER BY k", ExecOptions{})
	if got := rowsToStrings(res); len(got) != 1 || got[0] != "2|y" {
		t.Fatalf("rows = %v", got)
	}
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)", ExecOptions{})
	res = mustExec(t, db,
		"SELECT t.a, c.k FROM t, ldv_stat_custom c WHERE t.a = c.v ORDER BY t.a", ExecOptions{})
	if got := rowsToStrings(res); len(got) != 2 || got[0] != "1|x" || got[1] != "2|y" {
		t.Fatalf("join rows = %v", got)
	}
}

func TestVirtualTableNamespaceReservedAndReadOnly(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Exec("CREATE TABLE ldv_stat_anything (a INT)", ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "reserved") {
		t.Errorf("CREATE in reserved namespace: err = %v", err)
	}
	for _, sql := range []string{
		"INSERT INTO ldv_stat_tables VALUES ('x')",
		"UPDATE ldv_stat_tables SET name = 'x'",
		"DELETE FROM ldv_stat_tables",
		"DROP TABLE ldv_stat_tables",
	} {
		if _, err := db.Exec(sql, ExecOptions{}); err == nil {
			t.Errorf("%q should fail against a system view", sql)
		}
	}
}

func TestStatTablesCounters(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)", ExecOptions{})
	mustExec(t, db, "UPDATE t SET a = 4 WHERE a = 3", ExecOptions{})
	mustExec(t, db, "DELETE FROM t WHERE a = 1", ExecOptions{})
	res := mustExec(t, db,
		"SELECT live_rows, versions FROM ldv_stat_tables WHERE name = 't'", ExecOptions{})
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
	// 3 inserts + 1 update - 1 delete = 2 live; versions count every write.
	if live := res.Rows[0][0].Int(); live != 2 {
		t.Errorf("live_rows = %d, want 2", live)
	}
	if vers := res.Rows[0][1].Int(); vers < 4 {
		t.Errorf("versions = %d, want >= 4", vers)
	}
	// synced answers "will the next checkpoint write this table?" — and the
	// checkpoint counters say what the last ones did.
	synced := func() string {
		return strings.Join(rowsToStrings(mustExec(t, db, "SELECT synced FROM ldv_stat_tables WHERE name = 't'", ExecOptions{})), ",")
	}
	written, skipped := obs.Default().Counter("engine.checkpoint.tables_written"), obs.Default().Counter("engine.checkpoint.tables_skipped")
	w0, s0 := written.Load(), skipped.Load()
	fs := newMapFS()
	for i, want := range []string{"false", "true", "true"} {
		if got := synced(); got != want {
			t.Errorf("synced before checkpoint %d = %s, want %s", i+1, got, want)
		}
		if err := db.Checkpoint(fs, "/d"); err != nil {
			t.Fatal(err)
		}
	}
	if w, s := written.Load()-w0, skipped.Load()-s0; w != 1 || s != 2 {
		t.Errorf("three checkpoints of one unchanged table wrote it %d times and skipped it %d times, want 1 and 2", w, s)
	}
	mustExec(t, db, "INSERT INTO t VALUES (9)", ExecOptions{})
	if got := synced(); got != "false" {
		t.Errorf("synced after an insert = %s", got)
	}
}

func TestStatStatementsViaSQL(t *testing.T) {
	obs.Reset()
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)", ExecOptions{})
	mustExec(t, db, "SELECT a FROM t WHERE a = 1", ExecOptions{})
	mustExec(t, db, "SELECT a FROM t WHERE a = 2", ExecOptions{})
	res := mustExec(t, db,
		"SELECT calls, query FROM ldv_stat_statements WHERE query = 'SELECT a FROM t WHERE a = ?'",
		ExecOptions{})
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("stat_statements rows = %v, want one entry with calls=2", rowsToStrings(res))
	}
	// Failed statements count as calls and errors.
	_, _ = db.Exec("SELECT nope FROM t", ExecOptions{})
	res = mustExec(t, db,
		"SELECT errors FROM ldv_stat_statements WHERE query = 'SELECT nope FROM t'", ExecOptions{})
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("error entry = %v, want errors=1", rowsToStrings(res))
	}
}

func TestResultCarriesFingerprint(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY)")
	res1 := mustExec(t, db, "SELECT a FROM t WHERE a = 1", ExecOptions{})
	res2 := mustExec(t, db, "SELECT a FROM t WHERE a = 99", ExecOptions{})
	if len(res1.Fingerprint) != 16 || res1.Fingerprint != res2.Fingerprint {
		t.Fatalf("fingerprints %q / %q, want equal 16-digit keys", res1.Fingerprint, res2.Fingerprint)
	}
}

func TestExplainPlain(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	res := mustExec(t, db, "EXPLAIN SELECT b FROM t WHERE a > 1 ORDER BY b LIMIT 3", ExecOptions{})
	if want := []string{"op", "detail", "est_rows", "rows", "time_ns"}; strings.Join(res.Columns, ",") != strings.Join(want, ",") {
		t.Fatalf("columns = %v", res.Columns)
	}
	var ops []string
	for _, r := range res.Rows {
		ops = append(ops, r[0].Str())
		if r[2].IsNull() {
			t.Errorf("plain EXPLAIN row missing estimate: %v", rowsToStrings(res))
		}
		if !r[3].IsNull() || !r[4].IsNull() {
			t.Errorf("plain EXPLAIN has actuals: %v", rowsToStrings(res))
		}
	}
	joined := strings.Join(ops, ",")
	for _, want := range []string{"scan", "filter", "sort", "limit", "project"} {
		if !strings.Contains(joined, want) {
			t.Errorf("outline %v missing %q", ops, want)
		}
	}
}

func TestExplainAnalyzeSelect(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')", ExecOptions{})
	res := mustExec(t, db, "EXPLAIN ANALYZE SELECT b FROM t WHERE a > 1", ExecOptions{})
	byOp := map[string][]sqlval.Value{}
	for _, r := range res.Rows {
		byOp[r[0].Str()] = r
	}
	scan, ok := byOp["scan"]
	if !ok {
		t.Fatalf("no scan row in %v", rowsToStrings(res))
	}
	if scan[3].Int() != 3 || scan[4].Int() <= 0 {
		t.Errorf("scan actuals = rows %d time %d, want 3 rows and positive time",
			scan[3].Int(), scan[4].Int())
	}
	if scan[2].IsNull() || scan[2].Int() <= 0 {
		t.Errorf("scan estimate = %v, want positive", scan[2])
	}
	result, ok := byOp["result"]
	if !ok {
		t.Fatalf("no result row in %v", rowsToStrings(res))
	}
	if result[3].Int() != 2 {
		t.Errorf("result rows = %d, want 2", result[3].Int())
	}
}

// TestExplainAnalyzeFusedStages: the leaf's row says how many visible
// versions the scan examined — fewer than the table holds once a LIMIT
// stops it — the fused filter's row says how many survived, the fused
// sort+limit reports the rows it kept, and engine.rows_scanned counts the
// versions actually walked.
func TestExplainAnalyzeFusedStages(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	for i := 0; i < 40; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%4), ExecOptions{})
	}
	mustExec(t, db, "DELETE FROM t WHERE a < 4", ExecOptions{}) // dead versions: walked, not examined
	actuals := func(sql string) map[string]int64 {
		t.Helper()
		rows := map[string]int64{}
		for _, r := range mustExec(t, db, "EXPLAIN ANALYZE "+sql, ExecOptions{}).Rows {
			if !r[3].IsNull() {
				rows[r[0].Str()] = r[3].Int()
			}
		}
		return rows
	}
	scanned := mRowsScanned.Load()
	got := actuals("SELECT a FROM t WHERE b = 1 LIMIT 3")
	// Survivors are a = 5, 9, 13: the scan walks 14 versions, 10 of them visible.
	if got["scan"] != 10 || got["filter"] != 3 || got["limit"] != 3 || got["result"] != 3 {
		t.Errorf("LIMIT stop actuals = %v, want scan 10 (of 36 visible), filter 3, limit 3, result 3", got)
	}
	if d := mRowsScanned.Load() - scanned; d != 14 {
		t.Errorf("engine.rows_scanned grew by %d, want the 14 versions walked", d)
	}
	scanned = mRowsScanned.Load()
	got = actuals("SELECT a FROM t WHERE b = 1 ORDER BY a DESC LIMIT 3")
	if got["scan"] != 36 || got["filter"] != 9 || got["sort_limit"] != 3 || got["result"] != 3 {
		t.Errorf("top-N actuals = %v, want scan 36, filter 9, sort_limit 3, result 3", got)
	}
	if d := mRowsScanned.Load() - scanned; d != 40 {
		t.Errorf("engine.rows_scanned grew by %d, want all 40 versions", d)
	}
	// The plan says what will run.
	var ops []string
	for _, r := range mustExec(t, db, "EXPLAIN SELECT a FROM t WHERE b = 1 LIMIT 3", ExecOptions{}).Rows {
		ops = append(ops, r[0].Str()+"["+r[1].Str()+"]")
	}
	if want := "scan[t (stop after 3)] filter[(b = 1)] limit[3] project[]"; strings.Join(ops, " ") != want {
		t.Errorf("EXPLAIN = %v, want %s", ops, want)
	}
}

func TestExplainAnalyzeDML(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY)")
	res := mustExec(t, db, "EXPLAIN ANALYZE INSERT INTO t VALUES (1), (2)", ExecOptions{})
	if res.RowsAffected != 2 {
		t.Fatalf("RowsAffected = %d, want 2 (ANALYZE executes)", res.RowsAffected)
	}
	var sawInsert bool
	for _, r := range res.Rows {
		if r[0].Str() == "insert" && r[3].Int() == 2 {
			sawInsert = true
		}
	}
	if !sawInsert {
		t.Fatalf("no insert operator with 2 rows: %v", rowsToStrings(res))
	}
	// The write actually happened.
	if got := mustExec(t, db, "SELECT count(*) FROM t", ExecOptions{}); got.Rows[0][0].Int() != 2 {
		t.Error("EXPLAIN ANALYZE DML did not apply")
	}
	// Plain EXPLAIN of DML must not write.
	mustExec(t, db, "EXPLAIN INSERT INTO t VALUES (3)", ExecOptions{})
	if got := mustExec(t, db, "SELECT count(*) FROM t", ExecOptions{}); got.Rows[0][0].Int() != 2 {
		t.Error("plain EXPLAIN of DML wrote rows")
	}
}

func TestExplainAnalyzeRespectsReadOnly(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY)")
	db.SetReadOnly(true)
	if _, err := db.Exec("EXPLAIN ANALYZE INSERT INTO t VALUES (1)", ExecOptions{}); err == nil {
		t.Error("EXPLAIN ANALYZE of DML must fail on a read-only database")
	}
	if _, err := db.Exec("EXPLAIN INSERT INTO t VALUES (1)", ExecOptions{}); err != nil {
		t.Errorf("plain EXPLAIN of DML should be allowed read-only: %v", err)
	}
}
