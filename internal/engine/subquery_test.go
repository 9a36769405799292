package engine

import (
	"strings"
	"testing"

	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

func subqueryDB(t *testing.T) *DB {
	t.Helper()
	db := newTestDB(t,
		"CREATE TABLE emp (id INT PRIMARY KEY, dept INT, salary INT)",
		"CREATE TABLE dept (id INT PRIMARY KEY, name TEXT, budget INT)")
	mustExec(t, db, `INSERT INTO dept VALUES (1, 'eng', 100), (2, 'ops', 50), (3, 'empty', 10)`, ExecOptions{})
	mustExec(t, db, `INSERT INTO emp VALUES (1, 1, 80), (2, 1, 90), (3, 2, 40), (4, 2, 60)`, ExecOptions{})
	return db
}

func TestScalarSubqueryInWhere(t *testing.T) {
	db := subqueryDB(t)
	res := mustExec(t, db, "SELECT id FROM emp WHERE salary > (SELECT AVG(salary) FROM emp) ORDER BY id", ExecOptions{})
	got := rowsToStrings(res)
	// avg = 67.5; employees 1 (80) and 2 (90) qualify.
	if len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("scalar sub = %v", got)
	}
}

func TestScalarSubqueryInProjection(t *testing.T) {
	db := subqueryDB(t)
	res := mustExec(t, db, "SELECT id, salary - (SELECT MIN(salary) FROM emp) AS above FROM emp WHERE id = 2", ExecOptions{})
	if rowsToStrings(res)[0] != "2|50" {
		t.Fatalf("projection sub = %v", rowsToStrings(res))
	}
}

func TestInSubquery(t *testing.T) {
	db := subqueryDB(t)
	res := mustExec(t, db, "SELECT id FROM emp WHERE dept IN (SELECT id FROM dept WHERE budget > 60) ORDER BY id", ExecOptions{})
	if len(res.Rows) != 2 { // dept 1 only
		t.Fatalf("in sub = %v", rowsToStrings(res))
	}
	res = mustExec(t, db, "SELECT id FROM emp WHERE dept NOT IN (SELECT id FROM dept WHERE budget > 60) ORDER BY id", ExecOptions{})
	if len(res.Rows) != 2 { // dept 2
		t.Fatalf("not in sub = %v", rowsToStrings(res))
	}
}

func TestEmptyScalarSubqueryIsNull(t *testing.T) {
	db := subqueryDB(t)
	res := mustExec(t, db, "SELECT (SELECT id FROM emp WHERE id = 99)", ExecOptions{})
	if !res.Rows[0][0].IsNull() {
		t.Fatal("empty scalar subquery must be NULL")
	}
}

func TestScalarSubqueryErrors(t *testing.T) {
	db := subqueryDB(t)
	if _, err := db.Exec("SELECT (SELECT id FROM emp)", ExecOptions{}); err == nil {
		t.Fatal("multi-row scalar subquery must fail")
	}
	if _, err := db.Exec("SELECT (SELECT id, dept FROM emp WHERE id = 1)", ExecOptions{}); err == nil {
		t.Fatal("multi-column scalar subquery must fail")
	}
	if _, err := db.Exec("SELECT id FROM emp WHERE dept IN (SELECT id, name FROM dept)", ExecOptions{}); err == nil {
		t.Fatal("multi-column IN subquery must fail")
	}
	// Correlated subqueries are unsupported and must say so via the inner
	// resolution error.
	_, err := db.Exec("SELECT id FROM emp e WHERE salary > (SELECT budget FROM dept WHERE dept.id = e.dept)", ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "subquery") {
		t.Fatalf("correlated subquery error = %v", err)
	}
}

func TestNestedSubqueries(t *testing.T) {
	db := subqueryDB(t)
	res := mustExec(t, db, `SELECT id FROM emp WHERE dept IN
		(SELECT id FROM dept WHERE budget > (SELECT MIN(budget) FROM dept) AND budget < 80) ORDER BY id`, ExecOptions{})
	// dept with 10 < budget < 80: ops (50) -> employees 3, 4.
	got := rowsToStrings(res)
	if len(got) != 2 || got[0] != "3" {
		t.Fatalf("nested sub = %v", got)
	}
}

func TestSubqueryInDML(t *testing.T) {
	db := subqueryDB(t)
	mustExec(t, db, "UPDATE emp SET salary = salary + 1 WHERE dept = (SELECT id FROM dept WHERE name = 'eng')", ExecOptions{})
	res := mustExec(t, db, "SELECT salary FROM emp WHERE id = 1", ExecOptions{})
	if res.Rows[0][0].Int() != 81 {
		t.Fatalf("update sub = %v", rowsToStrings(res))
	}
	mustExec(t, db, "DELETE FROM emp WHERE salary < (SELECT AVG(salary) FROM emp)", ExecOptions{})
	res = mustExec(t, db, "SELECT count(*) FROM emp", ExecOptions{})
	if res.Rows[0][0].Int() != 2 {
		t.Fatalf("delete sub left %v", rowsToStrings(res))
	}
	mustExec(t, db, "INSERT INTO emp VALUES ((SELECT MAX(id) FROM emp) + 1, 1, 70)", ExecOptions{})
	res = mustExec(t, db, "SELECT MAX(id) FROM emp", ExecOptions{})
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("insert sub max id = %v", rowsToStrings(res))
	}
}

func TestSubqueryLineageMergesIntoOuter(t *testing.T) {
	db := subqueryDB(t)
	res := mustExec(t, db, "SELECT PROVENANCE id FROM emp WHERE dept IN (SELECT id FROM dept WHERE budget > 60)", ExecOptions{})
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	// Every outer row's lineage must include dept tuples (the subquery's
	// provenance) alongside its own emp tuple.
	tables := lineageTables(res)
	if tables["emp"] == 0 || tables["dept"] == 0 {
		t.Fatalf("subquery lineage tables = %v", tables)
	}
	// TupleValues must cover the dept tuples too.
	foundDept := false
	for _, ref := range res.TupleValues.Refs() {
		if ref.Table == "dept" {
			foundDept = true
		}
	}
	if !foundDept {
		t.Fatal("dept tuple values missing")
	}
}

func TestSubqueryLineageInUpdate(t *testing.T) {
	db := subqueryDB(t)
	res := mustExec(t, db, "UPDATE emp SET salary = 0 WHERE dept = (SELECT id FROM dept WHERE name = 'ops')", ExecOptions{WithLineage: true})
	deptSeen := false
	for _, ref := range res.ReadRefs {
		if ref.Table == "dept" {
			deptSeen = true
		}
	}
	if !deptSeen {
		t.Fatalf("update ReadRefs missing dept provenance: %v", res.ReadRefs)
	}
}

func TestSubqueryStringRoundTrip(t *testing.T) {
	db := subqueryDB(t)
	// Rendering a statement with subqueries must re-parse to the same SQL
	// and produce the same result.
	sql := "SELECT id FROM emp WHERE salary > (SELECT AVG(salary) FROM emp) AND dept IN (SELECT id FROM dept)"
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	rendered := stmt.String()
	stmt2, err := sqlparse.Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse %q: %v", rendered, err)
	}
	if stmt2.String() != rendered {
		t.Fatalf("not a fixed point: %q vs %q", stmt2.String(), rendered)
	}
	r1 := mustExec(t, db, sql, ExecOptions{})
	r2 := mustExec(t, db, rendered, ExecOptions{})
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatal("round-tripped subquery SQL diverged")
	}
}

func TestExistsSubquery(t *testing.T) {
	db := subqueryDB(t)
	res := mustExec(t, db, "SELECT count(*) FROM emp WHERE EXISTS (SELECT id FROM dept WHERE budget > 60)", ExecOptions{})
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("exists true = %v", rowsToStrings(res))
	}
	res = mustExec(t, db, "SELECT count(*) FROM emp WHERE EXISTS (SELECT id FROM dept WHERE budget > 999)", ExecOptions{})
	if res.Rows[0][0].Int() != 0 {
		t.Fatalf("exists false = %v", rowsToStrings(res))
	}
	res = mustExec(t, db, "SELECT count(*) FROM emp WHERE NOT EXISTS (SELECT id FROM dept WHERE budget > 999)", ExecOptions{})
	if res.Rows[0][0].Int() != 4 {
		t.Fatalf("not exists = %v", rowsToStrings(res))
	}
}

// TestSubqueryExplainIsWhatRuns: the planner sees the statement that
// executes, subqueries in place, so plain EXPLAIN prints the operators
// EXPLAIN ANALYZE then runs — the subquery's own, the index scan a scalar
// subquery keys, the DML root with the planner's estimate — in the same
// order with the same details and estimates.
func TestSubqueryExplainIsWhatRuns(t *testing.T) {
	db := newTestDB(t,
		"CREATE TABLE t (a INT PRIMARY KEY, b INT, c INT)",
		"CREATE TABLE u (x INT PRIMARY KEY, y INT)",
		"CREATE INDEX ix_b ON t (b)")
	for i := 1; i <= 12; i++ {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?, 0)", ExecOptions{Params: []sqlval.Value{sqlval.NewInt(int64(i)), sqlval.NewInt(int64(i % 7))}})
	}
	mustExec(t, db, "INSERT INTO u VALUES (1, 2), (2, 6), (3, 4)", ExecOptions{})

	const probe = "index_scan|t via ix_b (b = (SELECT MAX(y) FROM u))"
	cases := []struct {
		sql  string
		want []string // op|detail rows that must appear, in this order
	}{
		{"SELECT a FROM t WHERE b = (SELECT MAX(y) FROM u)",
			[]string{"scan|u", "aggregate|", probe, "project|"}},
		{"UPDATE t SET c = c + 1 WHERE b = (SELECT MAX(y) FROM u)",
			[]string{"scan|u", "aggregate|", probe, "update|t"}},
		{"SELECT a FROM t WHERE b IN (SELECT y FROM u WHERE x > 1) AND c >= 0",
			[]string{"scan|u", "project|", "scan|t", "filter|(b IN (SELECT y FROM u WHERE (x > 1))), (c >= 0)"}},
		{"DELETE FROM t WHERE EXISTS (SELECT x FROM u WHERE y > 5) AND b < (SELECT MIN(y) FROM u)",
			[]string{"scan|u", "scan|u", "aggregate|", "filter|EXISTS (SELECT x FROM u WHERE (y > 5)), (b < (SELECT MIN(y) FROM u))", "delete|t"}},
		{"INSERT INTO t VALUES ((SELECT MAX(a) FROM t) + 1, 1, 0)",
			[]string{"scan|t", "aggregate|", "insert|t"}},
		{"INSERT INTO t SELECT a + 100, b, c FROM t WHERE b = (SELECT MIN(y) FROM u)",
			[]string{"scan|u", "aggregate|", "index_scan|t via ix_b (b = (SELECT MIN(y) FROM u))", "insert|t"}},
	}
	// render is an EXPLAIN result as op|detail|est_rows lines.
	render := func(res *Result) []string {
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r[0].Str() + "|" + r[1].Str() + "|" + r[2].String()
		}
		return out
	}
	for _, c := range cases {
		plain := render(mustExec(t, db, "EXPLAIN "+c.sql, ExecOptions{}))
		ran := render(mustExec(t, db, "EXPLAIN ANALYZE "+c.sql, ExecOptions{}))
		if n := len(ran) - 1; n < 0 || !strings.HasPrefix(ran[n], "result|") {
			t.Fatalf("%s: EXPLAIN ANALYZE does not end in its result row: %v", c.sql, ran)
		} else {
			ran = ran[:n]
		}
		if strings.Join(plain, "\n") != strings.Join(ran, "\n") {
			t.Errorf("%s:\nEXPLAIN\n  %s\nEXPLAIN ANALYZE\n  %s", c.sql, strings.Join(plain, "\n  "), strings.Join(ran, "\n  "))
		}
		at := 0
		for _, line := range plain {
			if strings.HasSuffix(line, "|NULL") {
				t.Errorf("%s: row %q has no planner estimate", c.sql, line)
			}
			if at < len(c.want) && strings.HasPrefix(line, c.want[at]+"|") {
				at++
			}
		}
		if at != len(c.want) {
			t.Errorf("%s: EXPLAIN lacks %q (in order %q):\n  %s", c.sql, c.want[at], c.want, strings.Join(plain, "\n  "))
		}
	}
}

// TestSubqueryNestingCap: sixteen levels of subquery run, the seventeenth is
// refused — by the executor, when it reaches the init-plan the planner left
// unplanned — and plain EXPLAIN of either still renders.
func TestSubqueryNestingCap(t *testing.T) {
	db := subqueryDB(t)
	nested := func(levels int) string {
		sql := "SELECT MAX(salary) FROM emp"
		for i := 0; i < levels; i++ {
			sql = "SELECT MAX(salary) FROM emp WHERE salary <= (" + sql + ")"
		}
		return sql
	}
	if got := rowsToStrings(mustExec(t, db, nested(16), ExecOptions{})); len(got) != 1 || got[0] != "90" {
		t.Fatalf("16 levels = %v, want 90", got)
	}
	_, err := db.Exec(nested(17), ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "subquery nesting exceeds 16 levels") {
		t.Fatalf("17 levels: err = %v", err)
	}
	_, err = db.Exec("DELETE FROM emp WHERE salary > ("+nested(16)+")", ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "subquery nesting exceeds 16 levels") {
		t.Fatalf("17 levels under DELETE: err = %v", err)
	}
	if n := mustExec(t, db, "SELECT count(*) FROM emp", ExecOptions{}).Rows[0][0].Int(); n != 4 {
		t.Fatalf("refused DELETE left %d rows", n)
	}
	mustExec(t, db, "EXPLAIN "+nested(17), ExecOptions{})
}

// TestPreparedSubqueryPlanIsCached: a plan tree holds no subquery result —
// an execution keeps those in its value table — so a prepared SELECT with
// subqueries is served from the plan cache like any other, to whichever
// parse of the text asks, and still sees the rows of its own execution.
func TestPreparedSubqueryPlanIsCached(t *testing.T) {
	db := subqueryDB(t)
	const sql = "SELECT id, (SELECT MAX(budget) FROM dept) FROM emp WHERE salary > (SELECT AVG(salary) FROM emp) ORDER BY id"
	var stmts [2]*PreparedStmt
	for i := range stmts {
		ps, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !ps.cacheable {
			t.Fatal("a SELECT with subqueries must be plan-cacheable")
		}
		stmts[i] = ps
	}
	s := db.NewSession()
	defer s.Close()
	hits0 := mPlanCacheHits.Load()
	run := func(ps *PreparedStmt) string {
		res, err := s.ExecPrepared(ps, nil, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(rowsToStrings(res), " ")
	}
	if got := run(stmts[0]); got != "1|100 2|100" {
		t.Fatalf("first execution = %q", got)
	}
	mustExec(t, db, "INSERT INTO emp VALUES (5, 3, 500)", ExecOptions{})
	mustExec(t, db, "UPDATE dept SET budget = 700 WHERE id = 3", ExecOptions{})
	// avg is now 154: only the new row qualifies, under the new budget.
	for i, ps := range []*PreparedStmt{stmts[0], stmts[1]} {
		if got := run(ps); got != "5|700" {
			t.Fatalf("cached execution %d = %q, want 5|700", i, got)
		}
	}
	if stmts[0].CacheHits() != 1 || stmts[1].CacheHits() != 1 {
		t.Errorf("CacheHits = %d, %d; want 1, 1", stmts[0].CacheHits(), stmts[1].CacheHits())
	}
	if got := mPlanCacheHits.Load() - hits0; got != 2 {
		t.Errorf("plan.cache_hits delta = %d, want 2", got)
	}
}
