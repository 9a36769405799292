package engine

import (
	"fmt"
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

func newTestDB(t *testing.T, ddl ...string) *DB {
	t.Helper()
	db := NewDB(nil)
	for _, stmt := range ddl {
		if _, err := db.Exec(stmt, ExecOptions{}); err != nil {
			t.Fatalf("setup %q: %v", stmt, err)
		}
	}
	return db
}

func mustExec(t *testing.T, db *DB, sql string, opts ExecOptions) *Result {
	t.Helper()
	res, err := db.Exec(sql, opts)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func rowsToStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func TestCreateDropTable(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	if names := db.TableNames(); len(names) != 1 || names[0] != "t" {
		t.Fatalf("tables = %v", names)
	}
	if _, err := db.Exec("CREATE TABLE t (a INT)", ExecOptions{}); err == nil {
		t.Error("duplicate CREATE must fail")
	}
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS t (a INT)", ExecOptions{})
	mustExec(t, db, "DROP TABLE t", ExecOptions{})
	if len(db.TableNames()) != 0 {
		t.Error("table not dropped")
	}
	if _, err := db.Exec("DROP TABLE t", ExecOptions{}); err == nil {
		t.Error("dropping missing table must fail")
	}
	mustExec(t, db, "DROP TABLE IF EXISTS t", ExecOptions{})
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB(nil)
	if _, err := db.Exec("CREATE TABLE t (a INT, a TEXT)", ExecOptions{}); err == nil {
		t.Error("duplicate column must fail")
	}
	if _, err := db.Exec("CREATE TABLE t (prov_rowid INT)", ExecOptions{}); err == nil {
		t.Error("reserved column name must fail")
	}
	if _, err := db.Exec("CREATE TABLE t (a INT PRIMARY KEY, b INT PRIMARY KEY)", ExecOptions{}); err == nil {
		t.Error("two primary keys must fail")
	}
}

func TestInsertAndSelect(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	res := mustExec(t, db, "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')", ExecOptions{})
	if res.RowsAffected != 3 || len(res.WrittenRefs) != 3 {
		t.Fatalf("insert: affected=%d written=%d", res.RowsAffected, len(res.WrittenRefs))
	}
	res = mustExec(t, db, "SELECT a, b FROM t WHERE a >= 2 ORDER BY a", ExecOptions{})
	got := rowsToStrings(res)
	if len(got) != 2 || got[0] != "2|y" || got[1] != "3|z" {
		t.Fatalf("select = %v", got)
	}
}

func TestInsertColumnList(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT, b TEXT, c FLOAT)")
	mustExec(t, db, "INSERT INTO t (c, a) VALUES (1.5, 7)", ExecOptions{})
	res := mustExec(t, db, "SELECT a, b, c FROM t", ExecOptions{})
	if rowsToStrings(res)[0] != "7|NULL|1.5" {
		t.Fatalf("row = %v", rowsToStrings(res))
	}
}

func TestInsertTypeChecking(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT, b TEXT)")
	if _, err := db.Exec("INSERT INTO t VALUES ('nope', 'x')", ExecOptions{}); err == nil {
		t.Error("type mismatch must fail")
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1)", ExecOptions{}); err == nil {
		t.Error("arity mismatch must fail")
	}
	// int→float widening is allowed.
	db2 := newTestDB(t, "CREATE TABLE u (f FLOAT)")
	mustExec(t, db2, "INSERT INTO u VALUES (3)", ExecOptions{})
	res := mustExec(t, db2, "SELECT f FROM u", ExecOptions{})
	if res.Rows[0][0].Kind() != sqlval.KindFloat {
		t.Error("int must widen to float")
	}
}

func TestPrimaryKeyEnforced(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	if _, err := db.Exec("INSERT INTO t VALUES (1)", ExecOptions{}); err == nil {
		t.Error("duplicate pk must fail")
	}
	// Update to a conflicting pk must fail too.
	mustExec(t, db, "INSERT INTO t VALUES (2)", ExecOptions{})
	if _, err := db.Exec("UPDATE t SET a = 1 WHERE a = 2", ExecOptions{}); err == nil {
		t.Error("pk-conflicting update must fail")
	}
	// Updating pk to a fresh value is fine.
	mustExec(t, db, "UPDATE t SET a = 5 WHERE a = 2", ExecOptions{})
	res := mustExec(t, db, "SELECT a FROM t ORDER BY a", ExecOptions{})
	if got := rowsToStrings(res); got[0] != "1" || got[1] != "5" {
		t.Fatalf("rows = %v", got)
	}
}

func TestSelectStarHidesProvColumns(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	res := mustExec(t, db, "SELECT * FROM t", ExecOptions{})
	if len(res.Columns) != 1 || res.Columns[0] != "a" {
		t.Fatalf("star expanded to %v", res.Columns)
	}
}

func TestProvColumnsQueryable(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (10)", ExecOptions{Proc: "p1"})
	res := mustExec(t, db, "SELECT a, prov_rowid, prov_v, prov_p FROM t", ExecOptions{})
	row := res.Rows[0]
	if row[1].Int() <= 0 {
		t.Error("prov_rowid must be positive")
	}
	if row[2].Int() <= 0 {
		t.Error("prov_v must be positive")
	}
	if row[3].Str() != "p1" {
		t.Errorf("prov_p = %q", row[3].Str())
	}
}

func TestUpdateCreatesNewVersion(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 100)", ExecOptions{})
	before := mustExec(t, db, "SELECT prov_v FROM t", ExecOptions{}).Rows[0][0].Int()
	res := mustExec(t, db, "UPDATE t SET b = b + 1 WHERE a = 1", ExecOptions{Proc: "p2", WithLineage: true})
	if res.RowsAffected != 1 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	after := mustExec(t, db, "SELECT prov_v, b, prov_p FROM t", ExecOptions{}).Rows[0]
	if after[0].Int() <= before {
		t.Error("version must advance on update")
	}
	if after[1].Int() != 101 {
		t.Errorf("b = %d", after[1].Int())
	}
	if after[2].Str() != "p2" {
		t.Errorf("prov_p = %q", after[2].Str())
	}
	// Reenactment: ReadRefs reference the *pre-update* version.
	if len(res.ReadRefs) != 1 || res.ReadRefs[0].Version != uint64(before) {
		t.Fatalf("ReadRefs = %v, want version %d", res.ReadRefs, before)
	}
	if len(res.WrittenRefs) != 1 || res.WrittenRefs[0].Version != uint64(after[0].Int()) {
		t.Fatalf("WrittenRefs = %v", res.WrittenRefs)
	}
	if res.ReadRefs[0].Row != res.WrittenRefs[0].Row {
		t.Error("update must keep the row id")
	}
}

func TestDeleteRecordsReads(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)", ExecOptions{})
	res := mustExec(t, db, "DELETE FROM t WHERE a <> 2", ExecOptions{WithLineage: true})
	if res.RowsAffected != 2 || len(res.ReadRefs) != 2 {
		t.Fatalf("delete: affected=%d reads=%d", res.RowsAffected, len(res.ReadRefs))
	}
	left := mustExec(t, db, "SELECT a FROM t", ExecOptions{})
	if len(left.Rows) != 1 || left.Rows[0][0].Int() != 2 {
		t.Fatalf("remaining = %v", rowsToStrings(left))
	}
}

func TestDeleteAll(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3), (4)", ExecOptions{})
	mustExec(t, db, "DELETE FROM t", ExecOptions{})
	if mustExec(t, db, "SELECT count(*) FROM t", ExecOptions{}).Rows[0][0].Int() != 0 {
		t.Error("delete all failed")
	}
	// Reinserting old pks must work (index consistency after swap-delete).
	mustExec(t, db, "INSERT INTO t VALUES (2), (3)", ExecOptions{})
}

func TestCommaJoin(t *testing.T) {
	db := newTestDB(t,
		"CREATE TABLE o (okey INT PRIMARY KEY, cust INT)",
		"CREATE TABLE c (ckey INT PRIMARY KEY, name TEXT)")
	mustExec(t, db, "INSERT INTO o VALUES (1, 10), (2, 20), (3, 10)", ExecOptions{})
	mustExec(t, db, "INSERT INTO c VALUES (10, 'alice'), (20, 'bob')", ExecOptions{})
	res := mustExec(t, db, "SELECT o.okey, c.name FROM o, c WHERE o.cust = c.ckey ORDER BY o.okey", ExecOptions{})
	got := rowsToStrings(res)
	want := []string{"1|alice", "2|bob", "3|alice"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("join rows = %v", got)
		}
	}
}

func TestExplicitJoin(t *testing.T) {
	db := newTestDB(t,
		"CREATE TABLE a (x INT)",
		"CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)", ExecOptions{})
	mustExec(t, db, "INSERT INTO b VALUES (2), (3)", ExecOptions{})
	res := mustExec(t, db, "SELECT x, y FROM a JOIN b ON a.x = b.y", ExecOptions{})
	if len(res.Rows) != 1 || rowsToStrings(res)[0] != "2|2" {
		t.Fatalf("join = %v", rowsToStrings(res))
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := newTestDB(t,
		"CREATE TABLE l (lo INT, comment TEXT)",
		"CREATE TABLE o (okey INT, cust INT)",
		"CREATE TABLE c (ckey INT, name TEXT)")
	mustExec(t, db, "INSERT INTO l VALUES (1, 'l1'), (2, 'l2')", ExecOptions{})
	mustExec(t, db, "INSERT INTO o VALUES (1, 5), (2, 6)", ExecOptions{})
	mustExec(t, db, "INSERT INTO c VALUES (5, 'match'), (6, 'other')", ExecOptions{})
	res := mustExec(t, db, `SELECT l.comment FROM l, o, c
		WHERE l.lo = o.okey AND o.cust = c.ckey AND c.name LIKE '%match%'`, ExecOptions{})
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "l1" {
		t.Fatalf("rows = %v", rowsToStrings(res))
	}
}

func TestCrossJoinNoPredicate(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE a (x INT)", "CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1), (2)", ExecOptions{})
	mustExec(t, db, "INSERT INTO b VALUES (10), (20)", ExecOptions{})
	res := mustExec(t, db, "SELECT x, y FROM a, b", ExecOptions{})
	if len(res.Rows) != 4 {
		t.Fatalf("cross join rows = %d", len(res.Rows))
	}
}

func TestNullNeverJoins(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE a (x INT)", "CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (NULL), (1)", ExecOptions{})
	mustExec(t, db, "INSERT INTO b VALUES (NULL), (1)", ExecOptions{})
	res := mustExec(t, db, "SELECT x FROM a, b WHERE a.x = b.y", ExecOptions{})
	if len(res.Rows) != 1 {
		t.Fatalf("null join rows = %d", len(res.Rows))
	}
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE s (id INT, price FLOAT)")
	mustExec(t, db, "INSERT INTO s VALUES (1, 5), (2, 11), (3, 14)", ExecOptions{})
	res := mustExec(t, db, "SELECT SUM(price) AS ttl FROM s WHERE price > 10", ExecOptions{})
	// The paper's Example 4: ttl = 25.
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 25 {
		t.Fatalf("ttl = %v", rowsToStrings(res))
	}
	res = mustExec(t, db, "SELECT count(*), MIN(price), MAX(price), AVG(price) FROM s", ExecOptions{})
	row := res.Rows[0]
	if row[0].Int() != 3 || row[1].Float() != 5 || row[2].Float() != 14 || row[3].Float() != 10 {
		t.Fatalf("aggs = %v", rowsToStrings(res))
	}
}

func TestGroupBy(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (1, 20), (2, 5)", ExecOptions{})
	res := mustExec(t, db, "SELECT k, SUM(v) AS s, count(*) FROM t GROUP BY k ORDER BY k", ExecOptions{})
	got := rowsToStrings(res)
	if len(got) != 2 || got[0] != "1|30|2" || got[1] != "2|5|1" {
		t.Fatalf("group by = %v", got)
	}
}

func TestGlobalAggregateEmptyInput(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	res := mustExec(t, db, "SELECT count(*), SUM(a) FROM t", ExecOptions{})
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 0 || !res.Rows[0][1].IsNull() {
		t.Fatalf("empty agg = %v", rowsToStrings(res))
	}
	// With GROUP BY, empty input yields no groups.
	res = mustExec(t, db, "SELECT a, count(*) FROM t GROUP BY a", ExecOptions{})
	if len(res.Rows) != 0 {
		t.Fatalf("grouped empty = %v", rowsToStrings(res))
	}
}

func TestCountDistinct(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (1), (2), (NULL)", ExecOptions{})
	res := mustExec(t, db, "SELECT COUNT(DISTINCT a), COUNT(a), count(*) FROM t", ExecOptions{})
	row := res.Rows[0]
	if row[0].Int() != 2 || row[1].Int() != 3 || row[2].Int() != 4 {
		t.Fatalf("counts = %v", rowsToStrings(res))
	}
}

func TestSelectDistinct(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (1), (2)", ExecOptions{})
	res := mustExec(t, db, "SELECT DISTINCT a FROM t ORDER BY a", ExecOptions{})
	if len(res.Rows) != 2 {
		t.Fatalf("distinct = %v", rowsToStrings(res))
	}
}

func TestOrderByDescAndLimit(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (3), (1), (2)", ExecOptions{})
	res := mustExec(t, db, "SELECT a FROM t ORDER BY a DESC LIMIT 2", ExecOptions{})
	got := rowsToStrings(res)
	if len(got) != 2 || got[0] != "3" || got[1] != "2" {
		t.Fatalf("order desc limit = %v", got)
	}
}

func TestOrderByAlias(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)", ExecOptions{})
	res := mustExec(t, db, "SELECT a * -1 AS neg FROM t ORDER BY neg", ExecOptions{})
	got := rowsToStrings(res)
	if got[0] != "-3" || got[2] != "-1" {
		t.Fatalf("order by alias = %v", got)
	}
}

func TestTableLessSelect(t *testing.T) {
	db := NewDB(nil)
	res := mustExec(t, db, "SELECT 1 + 2 AS x, 'hi'", ExecOptions{})
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 || res.Rows[0][1].Str() != "hi" {
		t.Fatalf("tableless = %v", rowsToStrings(res))
	}
}

func TestInsertSelect(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE src (a INT)", "CREATE TABLE dst (a INT)")
	mustExec(t, db, "INSERT INTO src VALUES (1), (2), (3)", ExecOptions{})
	res := mustExec(t, db, "INSERT INTO dst SELECT a FROM src WHERE a > 1", ExecOptions{WithLineage: true})
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	if len(res.ReadRefs) != 2 {
		t.Fatalf("insert-select must record read lineage, got %v", res.ReadRefs)
	}
	for _, r := range res.ReadRefs {
		if r.Table != "src" {
			t.Errorf("read ref table = %s", r.Table)
		}
	}
}

func TestErrorCases(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	bad := []string{
		"SELECT b FROM t",
		"SELECT a FROM missing",
		"INSERT INTO missing VALUES (1)",
		"INSERT INTO t (nope) VALUES (1)",
		"UPDATE missing SET a = 1",
		"UPDATE t SET nope = 1",
		"DELETE FROM missing",
		"SELECT a FROM t, t",
		"SELECT SUM(a) FROM t WHERE SUM(a) > 1",
		"SELECT missing.* FROM t",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql, ExecOptions{}); err == nil {
			t.Errorf("Exec(%q) unexpectedly succeeded", sql)
		}
	}
}

// TestRuntimeTypeErrorInWhere: a predicate that fails to evaluate fails the
// statement — SELECT and UPDATE/DELETE agree, whether the predicate runs in
// the fused leaf or in a filter above a join.
func TestRuntimeTypeErrorInWhere(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (id INT PRIMARY KEY, a INT, name TEXT)", "CREATE TABLE u (id INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1, 'x')", ExecOptions{})
	mustExec(t, db, "INSERT INTO u VALUES (1)", ExecOptions{})
	for _, where := range []string{"NOT a", "name - 1 > 0", "id / 0 > 1"} {
		for _, sql := range []string{
			"SELECT a FROM t WHERE " + where,
			"SELECT a FROM t WHERE " + where + " LIMIT 5",
			"UPDATE t SET a = 2 WHERE " + where,
			"DELETE FROM t WHERE " + where,
		} {
			if _, err := db.Exec(sql, ExecOptions{}); err == nil {
				t.Errorf("%s: no error from a predicate that cannot be evaluated", sql)
			}
		}
	}
	// Residual filter above a join (both tables referenced in one conjunct).
	if _, err := db.Exec("SELECT t.a FROM t, u WHERE t.id = u.id AND NOT (t.a + u.id)", ExecOptions{}); err == nil {
		t.Error("join residual: no error from a predicate that cannot be evaluated")
	}
	// The failed statements wrote nothing.
	if got := rowsToStrings(mustExec(t, db, "SELECT id, a, name FROM t", ExecOptions{})); len(got) != 1 || got[0] != "1|1|x" {
		t.Errorf("table after failed DML = %v", got)
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE a (x INT)", "CREATE TABLE b (x INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1)", ExecOptions{})
	mustExec(t, db, "INSERT INTO b VALUES (1)", ExecOptions{})
	if _, err := db.Exec("SELECT x FROM a, b", ExecOptions{}); err == nil {
		t.Error("ambiguous column must fail")
	}
	mustExec(t, db, "SELECT a.x FROM a, b", ExecOptions{})
}

func TestStatementTimestamps(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	r1 := mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	r2 := mustExec(t, db, "SELECT a FROM t", ExecOptions{})
	if r1.Start >= r1.End {
		t.Error("statement interval must be non-empty")
	}
	if r2.Start <= r1.End {
		t.Error("later statement must start after earlier one ends")
	}
	if r2.StmtID <= r1.StmtID {
		t.Error("statement ids must increase")
	}
}

func TestScanAllAndLookupVersion(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)", ExecOptions{})
	refs, rows, err := db.ScanAll("t")
	if err != nil || len(refs) != 2 || len(rows) != 2 {
		t.Fatalf("scan: %v %v %v", refs, rows, err)
	}
	vals, ok := db.LookupVersion(refs[0])
	if !ok || !vals[0].Equal(rows[0][0]) {
		t.Fatal("lookup version failed")
	}
	if _, ok := db.LookupVersion(TupleRef{Table: "t", Row: 999, Version: 1}); ok {
		t.Error("missing version lookup must fail")
	}
	if _, _, err := db.ScanAll("missing"); err == nil {
		t.Error("scan of missing table must fail")
	}
}

func TestInsertRowDirectIsPreloaded(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	ref, err := db.InsertRowDirect("t", []sqlval.Value{sqlval.NewInt(7)})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Row == 0 {
		t.Error("direct insert must assign a row id")
	}
	res := mustExec(t, db, "SELECT prov_p FROM t", ExecOptions{})
	if res.Rows[0][0].Str() != "" {
		t.Error("preloaded rows must have empty prov_p")
	}
}

func TestBetweenAndInPredicates(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (5), (10), (15)", ExecOptions{})
	res := mustExec(t, db, "SELECT a FROM t WHERE a BETWEEN 5 AND 10 ORDER BY a", ExecOptions{})
	if got := rowsToStrings(res); len(got) != 2 || got[0] != "5" || got[1] != "10" {
		t.Fatalf("between = %v", got)
	}
	res = mustExec(t, db, "SELECT a FROM t WHERE a NOT BETWEEN 5 AND 10 ORDER BY a", ExecOptions{})
	if len(res.Rows) != 2 {
		t.Fatalf("not between = %v", rowsToStrings(res))
	}
	res = mustExec(t, db, "SELECT a FROM t WHERE a IN (1, 15)", ExecOptions{})
	if len(res.Rows) != 2 {
		t.Fatalf("in = %v", rowsToStrings(res))
	}
}

func TestNullSemanticsInWhere(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (NULL)", ExecOptions{})
	// NULL = NULL is UNKNOWN, so only the non-null row can match a = a... and
	// NULL never satisfies comparisons.
	res := mustExec(t, db, "SELECT a FROM t WHERE a = 1", ExecOptions{})
	if len(res.Rows) != 1 {
		t.Fatal("null row must not match a = 1")
	}
	res = mustExec(t, db, "SELECT a FROM t WHERE a <> 1", ExecOptions{})
	if len(res.Rows) != 0 {
		t.Fatal("null row must not match a <> 1")
	}
	res = mustExec(t, db, "SELECT a FROM t WHERE a IS NULL", ExecOptions{})
	if len(res.Rows) != 1 {
		t.Fatal("IS NULL must find the null row")
	}
	res = mustExec(t, db, "SELECT a FROM t WHERE a IS NOT NULL", ExecOptions{})
	if len(res.Rows) != 1 {
		t.Fatal("IS NOT NULL must find the non-null row")
	}
}

func TestUpdateUsesProvColumnsInWhere(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{Proc: "creator"})
	res := mustExec(t, db, "SELECT a FROM t WHERE prov_p = 'creator'", ExecOptions{})
	if len(res.Rows) != 1 {
		t.Fatal("prov_p predicate failed")
	}
}

func TestExecScript(t *testing.T) {
	db := NewDB(nil)
	results, err := db.ExecScript(`
		CREATE TABLE t (a INT);
		INSERT INTO t VALUES (1);
		SELECT a FROM t;`, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || len(results[2].Rows) != 1 {
		t.Fatalf("script results = %d", len(results))
	}
	// Error mid-script returns completed prefix.
	results, err = db.ExecScript("INSERT INTO t VALUES (2); INSERT INTO missing VALUES (1);", ExecOptions{})
	if err == nil {
		t.Fatal("expected script error")
	}
	if len(results) != 1 {
		t.Fatalf("partial results = %d", len(results))
	}
}

// A script statement runs from the AST the script parse produced, not from a
// re-rendering of it: rendering 2.0 gives "2", which reparses as an INTEGER.
func TestExecScriptKeepsLiteralKinds(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	for _, sql := range []string{"SELECT 7 / 2.0", "SELECT 1.0", "SELECT 3 * 1e0", "SELECT 5 % 2.0"} {
		want, wantErr := db.Exec(sql, ExecOptions{})
		results, err := db.ExecScript(sql+"; SELECT 1", ExecOptions{})
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: script error %v, Exec error %v", sql, err, wantErr)
		}
		if wantErr != nil {
			continue
		}
		got := results[0].Rows[0][0]
		if w := want.Rows[0][0]; got.Kind() != w.Kind() || !got.Equal(w) {
			t.Errorf("%s: script = %v (%v), Exec = %v (%v)", sql, got, got.Kind(), w, w.Kind())
		}
	}
	res := mustExec(t, db, "SELECT 7 / 2.0", ExecOptions{})
	if res.Rows[0][0].Kind() != sqlval.KindFloat || res.Rows[0][0].Float() != 3.5 {
		t.Fatalf("7 / 2.0 = %v", res.Rows[0][0])
	}
}

// A script's placeholders are numbered across the script and Params binds
// exactly that many values.
func TestExecScriptParams(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	script := "INSERT INTO t VALUES (?); INSERT INTO t VALUES (?); SELECT a FROM t WHERE a = ?"
	vals := []sqlval.Value{sqlval.NewInt(10), sqlval.NewInt(20), sqlval.NewInt(20)}
	results, err := db.ExecScript(script, ExecOptions{Params: vals})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || len(results[2].Rows) != 1 || results[2].Rows[0][0].Int() != 20 {
		t.Fatalf("script results = %+v", results)
	}
	for _, bad := range [][]sqlval.Value{nil, vals[:2], append(vals[:3:3], sqlval.NewInt(1))} {
		if results, err := db.ExecScript(script, ExecOptions{Params: bad}); err == nil || len(results) != 0 {
			t.Errorf("%d params: results = %d, err = %v; want the first statement refused", len(bad), len(results), err)
		}
	}
}

func TestLargeScanWithJoin(t *testing.T) {
	db := newTestDB(t,
		"CREATE TABLE big (id INT PRIMARY KEY, fk INT)",
		"CREATE TABLE dim (id INT PRIMARY KEY, name TEXT)")
	for i := 0; i < 50; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO dim VALUES (%d, 'd%d')", i, i), ExecOptions{})
	}
	for i := 0; i < 2000; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO big VALUES (%d, %d)", i, i%50), ExecOptions{})
	}
	res := mustExec(t, db, "SELECT count(*) FROM big b, dim d WHERE b.fk = d.id", ExecOptions{})
	if res.Rows[0][0].Int() != 2000 {
		t.Fatalf("join count = %d", res.Rows[0][0].Int())
	}
}

func TestGroupByHaving(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (1, 20), (2, 5), (3, 7), (3, 8)", ExecOptions{})
	res := mustExec(t, db, "SELECT k, SUM(v) AS s FROM t GROUP BY k HAVING count(*) > 1 ORDER BY k", ExecOptions{})
	got := rowsToStrings(res)
	if len(got) != 2 || got[0] != "1|30" || got[1] != "3|15" {
		t.Fatalf("having = %v", got)
	}
	// HAVING over an aggregate that is not in the select list.
	res = mustExec(t, db, "SELECT k FROM t GROUP BY k HAVING SUM(v) > 20", ExecOptions{})
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("having sum = %v", rowsToStrings(res))
	}
	// HAVING lineage: excluded groups contribute nothing.
	res = mustExec(t, db, "SELECT PROVENANCE k FROM t GROUP BY k HAVING count(*) > 1 ORDER BY k", ExecOptions{})
	if len(res.Lineage) != 2 || len(res.Lineage[0]) != 2 {
		t.Fatalf("having lineage = %v", res.Lineage)
	}
	// HAVING without GROUP BY is rejected at parse time.
	if _, err := db.Exec("SELECT k FROM t HAVING count(*) > 1", ExecOptions{}); err == nil {
		t.Fatal("HAVING without GROUP BY must fail")
	}
}
