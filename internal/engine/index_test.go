package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// analyzeOps runs EXPLAIN ANALYZE and returns the operator column.
func analyzeOps(t *testing.T, db *DB, sql string) []string {
	t.Helper()
	res := mustExec(t, db, "EXPLAIN ANALYZE "+sql, ExecOptions{})
	ops := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		ops[i] = r[0].Str()
	}
	return ops
}

func hasOp(ops []string, op string) bool {
	for _, o := range ops {
		if o == op {
			return true
		}
	}
	return false
}

func TestCreateDropIndex(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	mustExec(t, db, "CREATE INDEX ix_b ON t (b)", ExecOptions{})
	if _, err := db.Exec("CREATE INDEX ix_b ON t (b)", ExecOptions{}); err == nil {
		t.Error("duplicate index name must fail")
	}
	mustExec(t, db, "CREATE INDEX IF NOT EXISTS ix_b ON t (b)", ExecOptions{})
	if _, err := db.Exec("CREATE INDEX ix2 ON missing (b)", ExecOptions{}); err == nil {
		t.Error("index on missing table must fail")
	}
	if _, err := db.Exec("CREATE INDEX ix2 ON t (nope)", ExecOptions{}); err == nil {
		t.Error("index on missing column must fail")
	}
	if _, err := db.Exec("CREATE INDEX ix2 ON t (b) USING wavelet", ExecOptions{}); err == nil {
		t.Error("unknown index kind must fail")
	}
	if _, err := db.Exec("CREATE INDEX ldv_stat_x ON t (b)", ExecOptions{}); err == nil {
		t.Error("ldv_stat_ namespace must be reserved")
	}
	mustExec(t, db, "DROP INDEX ix_b", ExecOptions{})
	if _, err := db.Exec("DROP INDEX ix_b", ExecOptions{}); err == nil {
		t.Error("dropping missing index must fail")
	}
	mustExec(t, db, "DROP INDEX IF EXISTS ix_b", ExecOptions{})

	// Index DDL is auto-commit only, like table DDL.
	s := db.NewSession()
	mustExec(t, db, "INSERT INTO t VALUES (1, 'x')", ExecOptions{})
	if _, err := s.Exec("BEGIN", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("CREATE INDEX ix3 ON t (b)", ExecOptions{}); err == nil {
		t.Error("CREATE INDEX inside a transaction must fail")
	}
	if _, err := s.Exec("ROLLBACK", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexScanMatchesFullScan compares every query's result with and
// without indexes: an index scan must be invisible except in the plan.
func TestIndexScanMatchesFullScan(t *testing.T) {
	queries := []string{
		"SELECT a, b, c FROM t WHERE b = 3 ORDER BY a",
		"SELECT a, b, c FROM t WHERE b = 999 ORDER BY a",
		"SELECT a, b, c FROM t WHERE c = 'v7' ORDER BY a",
		"SELECT a, b, c FROM t WHERE b > 5 AND b <= 8 ORDER BY a",
		"SELECT a, b, c FROM t WHERE b >= 9 ORDER BY a",
		"SELECT a, b, c FROM t WHERE b < 2 ORDER BY a",
		"SELECT a, b, c FROM t WHERE b = 4 AND c = 'v14' ORDER BY a",
		"SELECT a, b, c FROM t WHERE b = 4 AND a > 10 ORDER BY a",
		// Cross-kind probe: int column compared with a float literal.
		"SELECT a, b, c FROM t WHERE b = 3.0 ORDER BY a",
		// Incomparable probe: matches nothing, errors nothing.
		"SELECT a, b, c FROM t WHERE b = 'zed' ORDER BY a",
		"SELECT count(*), max(a) FROM t WHERE b = 6",
		"SELECT t.a, u.tag FROM t, u WHERE t.b = u.ub AND t.b = 3 ORDER BY t.a, u.tag",
	}
	setup := func(indexed bool) *DB {
		db := newTestDB(t,
			"CREATE TABLE t (a INT PRIMARY KEY, b INT, c TEXT)",
			"CREATE TABLE u (uid INT PRIMARY KEY, ub INT, tag TEXT)")
		if indexed {
			mustExec(t, db, "CREATE INDEX ix_b ON t (b) USING ordered", ExecOptions{})
			mustExec(t, db, "CREATE INDEX ix_c ON t (c)", ExecOptions{})
		}
		for i := 0; i < 40; i++ {
			mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'v%d')", i, i%10, i%20), ExecOptions{})
		}
		mustExec(t, db, "INSERT INTO u VALUES (1, 3, 'x'), (2, 3, 'y'), (3, 7, 'z')", ExecOptions{})
		// Churn so the indexes have seen updates and deletes too.
		mustExec(t, db, "UPDATE t SET b = 3 WHERE a = 25", ExecOptions{})
		mustExec(t, db, "DELETE FROM t WHERE a = 13", ExecOptions{})
		if !indexed {
			return db
		}
		// Same churn with indexes created *after* load on a third column
		// exercises the build-from-existing-rows path.
		mustExec(t, db, "CREATE INDEX ix_a ON t (a) USING ordered", ExecOptions{})
		return db
	}
	plain, indexed := setup(false), setup(true)
	for _, q := range queries {
		want := rowsToStrings(mustExec(t, plain, q, ExecOptions{}))
		got := rowsToStrings(mustExec(t, indexed, q, ExecOptions{}))
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s:\n  full scan: %v\n  indexed:   %v", q, want, got)
		}
	}
	// The equality and range queries above actually used the index.
	ops := analyzeOps(t, indexed, "SELECT a FROM t WHERE b = 3")
	if !hasOp(ops, "index_scan") {
		t.Errorf("point query ops = %v, want index_scan", ops)
	}
	ops = analyzeOps(t, indexed, "SELECT a FROM t WHERE b > 5 AND b <= 8")
	if !hasOp(ops, "index_scan") {
		t.Errorf("range query ops = %v, want index_scan", ops)
	}
	ops = analyzeOps(t, indexed, "SELECT a FROM t WHERE c > 'a'")
	if hasOp(ops, "index_scan") {
		t.Errorf("range over hash index ops = %v, want full scan", ops)
	}
}

// TestIndexDML checks that UPDATE and DELETE locate their rows through an
// index and that maintenance keeps later statements correct.
func TestIndexDML(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, db, "CREATE INDEX ix_b ON t (b)", ExecOptions{})
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%5), ExecOptions{})
	}
	res := mustExec(t, db, "EXPLAIN ANALYZE UPDATE t SET b = 50 WHERE b = 2", ExecOptions{})
	if res.RowsAffected != 4 {
		t.Fatalf("update affected %d rows, want 4", res.RowsAffected)
	}
	var sawIndexScan bool
	for _, r := range res.Rows {
		if r[0].Str() == "index_scan" {
			sawIndexScan = true
		}
	}
	if !sawIndexScan {
		t.Errorf("UPDATE plan = %v, want index_scan", rowsToStrings(res))
	}
	// The moved rows are findable under their new key, gone from the old.
	if got := rowsToStrings(mustExec(t, db, "SELECT count(*) FROM t WHERE b = 50", ExecOptions{})); got[0] != "4" {
		t.Errorf("b=50 count = %v, want 4", got)
	}
	if got := rowsToStrings(mustExec(t, db, "SELECT count(*) FROM t WHERE b = 2", ExecOptions{})); got[0] != "0" {
		t.Errorf("b=2 count = %v, want 0", got)
	}
	res = mustExec(t, db, "DELETE FROM t WHERE b = 50", ExecOptions{})
	if res.RowsAffected != 4 {
		t.Fatalf("delete affected %d rows, want 4", res.RowsAffected)
	}
	if got := rowsToStrings(mustExec(t, db, "SELECT count(*) FROM t", ExecOptions{})); got[0] != "16" {
		t.Errorf("total count = %v, want 16", got)
	}
}

// TestIndexMVCC: index candidates still go through snapshot visibility, and
// write-write conflicts are detected when the writer arrives via an index.
func TestIndexMVCC(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, db, "CREATE INDEX ix_b ON t (b)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20)", ExecOptions{})

	s1, s2 := db.NewSession(), db.NewSession()
	if _, err := s1.Exec("BEGIN", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("UPDATE t SET b = 30 WHERE b = 10", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	// s2 reads through the index: s1's uncommitted version is invisible.
	got := rowsToStrings(mustExec(t, db, "SELECT a FROM t WHERE b = 10", ExecOptions{}))
	if len(got) != 1 || got[0] != "1" {
		t.Errorf("uncommitted update leaked through index: %v", got)
	}
	if got := rowsToStrings(mustExec(t, db, "SELECT a FROM t WHERE b = 30", ExecOptions{})); len(got) != 0 {
		t.Errorf("uncommitted new version visible via index: %v", got)
	}
	// A concurrent writer touching the same row via the index conflicts.
	if _, err := s2.Exec("UPDATE t SET b = 40 WHERE b = 10", ExecOptions{}); err == nil ||
		!strings.Contains(err.Error(), "serialize") {
		t.Errorf("concurrent index-located update: err = %v, want serialization failure", err)
	}
	if _, err := s1.Exec("COMMIT", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	got = rowsToStrings(mustExec(t, db, "SELECT a FROM t WHERE b = 30", ExecOptions{}))
	if len(got) != 1 || got[0] != "1" {
		t.Errorf("committed version not found via index: %v", got)
	}

	// Rollback unwinds index maintenance.
	s3 := db.NewSession()
	if _, err := s3.Exec("BEGIN", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Exec("INSERT INTO t VALUES (3, 99)", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Exec("ROLLBACK", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := rowsToStrings(mustExec(t, db, "SELECT a FROM t WHERE b = 99", ExecOptions{})); len(got) != 0 {
		t.Errorf("rolled-back insert visible via index: %v", got)
	}
}

func TestIndexStatView(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, db, "CREATE INDEX ix_b ON t (b) USING ordered", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20), (3, 10)", ExecOptions{})
	mustExec(t, db, "SELECT a FROM t WHERE b = 10", ExecOptions{})
	res := mustExec(t, db,
		"SELECT name, table_name, column_name, kind, entries, scans FROM ldv_stat_indexes", ExecOptions{})
	// The primary key's implicit index is listed beside the declared one.
	if len(res.Rows) != 2 {
		t.Fatalf("ldv_stat_indexes rows = %v, want 2", rowsToStrings(res))
	}
	if got := strings.Join(rowsToStrings(res)[1:], " "); got != "t_pkey|t|a|hash|3|0" {
		t.Errorf("primary key index row = %q", got)
	}
	r := res.Rows[0]
	if r[0].Str() != "ix_b" || r[1].Str() != "t" || r[2].Str() != "b" || r[3].Str() != "ordered" {
		t.Errorf("index row = %v", rowsToStrings(res))
	}
	if r[4].Int() != 3 {
		t.Errorf("entries = %d, want 3", r[4].Int())
	}
	if r[5].Int() < 1 {
		t.Errorf("scans = %d, want >= 1", r[5].Int())
	}
	mustExec(t, db, "DROP INDEX ix_b", ExecOptions{})
	res = mustExec(t, db, "SELECT name FROM ldv_stat_indexes", ExecOptions{})
	if len(res.Rows) != 1 {
		t.Errorf("dropped index still listed: %v", rowsToStrings(res))
	}
}

// TestIndexRecovery: index definitions survive WAL-only recovery,
// checkpoint+WAL recovery, and keep answering queries correctly.
func TestIndexRecovery(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/data")
	mustExec(t, db, "CREATE TABLE t (a INT PRIMARY KEY, b INT)", ExecOptions{})
	mustExec(t, db, "CREATE INDEX ix_b ON t (b) USING ordered", ExecOptions{})
	for i := 0; i < 10; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i%3), ExecOptions{})
	}
	mustExec(t, db, "UPDATE t SET b = 7 WHERE a = 4", ExecOptions{})

	// WAL-only recovery.
	db2, _ := recoverInto(t, fs, "/data")
	want := selectAll(t, db, "SELECT a FROM t WHERE b = 1 ORDER BY a")
	got := selectAll(t, db2, "SELECT a FROM t WHERE b = 1 ORDER BY a")
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("recovered index query = %v, want %v", got, want)
	}
	if ops := analyzeOps(t, db2, "SELECT a FROM t WHERE b = 1"); !hasOp(ops, "index_scan") {
		t.Errorf("recovered plan ops = %v, want index_scan", ops)
	}

	// Checkpoint, then recover from snapshot + empty WAL.
	if err := db2.Checkpoint(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db2, "INSERT INTO t VALUES (100, 1)", ExecOptions{})
	db3, _ := recoverInto(t, fs, "/data")
	got = selectAll(t, db3, "SELECT a FROM t WHERE b = 1 ORDER BY a")
	if len(got) != len(want)+1 {
		t.Fatalf("post-checkpoint index query = %v, want %d rows", got, len(want)+1)
	}
	if ops := analyzeOps(t, db3, "SELECT a FROM t WHERE b = 1"); !hasOp(ops, "index_scan") {
		t.Errorf("post-checkpoint plan ops = %v, want index_scan", ops)
	}

	// A dropped index stays dropped across recovery.
	mustExec(t, db3, "DROP INDEX ix_b", ExecOptions{})
	db4, _ := recoverInto(t, fs, "/data")
	if ops := analyzeOps(t, db4, "SELECT a FROM t WHERE b = 1"); hasOp(ops, "index_scan") {
		t.Errorf("dropped index reappeared after recovery: %v", ops)
	}
}
