package engine

import (
	"strings"
	"testing"

	"ldv/internal/sqlparse"
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
