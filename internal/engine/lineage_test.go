package engine

import (
	"testing"
)

// These tests pin down the Lineage semantics of §VI-A (Definition 7) that
// the LDV packaging decisions depend on.

func lineageTables(res *Result) map[string]int {
	counts := map[string]int{}
	for i := range res.Lineage {
		for _, ref := range res.LineageRefs(i) {
			counts[ref.Table]++
		}
	}
	return counts
}

func TestSelectLineageSimpleFilter(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE sales (id INT, price FLOAT)")
	mustExec(t, db, "INSERT INTO sales VALUES (1, 5), (2, 11), (3, 14)", ExecOptions{})
	// Example 4/5 of the paper: the SUM query's single result row depends on
	// exactly the tuples that passed the filter (t2 and t3).
	res := mustExec(t, db, "SELECT PROVENANCE SUM(price) AS ttl FROM sales WHERE price > 10", ExecOptions{})
	if res.Lineage == nil {
		t.Fatal("PROVENANCE query must return lineage")
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 25 {
		t.Fatalf("ttl = %v", rowsToStrings(res))
	}
	if len(res.Lineage[0]) != 2 {
		t.Fatalf("lineage size = %d, want 2", len(res.Lineage[0]))
	}
	// Verify the lineage refs point at the right tuples.
	for _, ref := range res.LineageRefs(0) {
		vals, ok := db.LookupVersion(ref)
		if !ok {
			t.Fatalf("lineage ref %v not found", ref)
		}
		if p := vals[1].Float(); p != 11 && p != 14 {
			t.Errorf("lineage includes tuple with price %v", p)
		}
	}
}

func TestPlainSelectHasNoLineage(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	res := mustExec(t, db, "SELECT a FROM t", ExecOptions{})
	if res.Lineage != nil {
		t.Fatal("plain select must not compute lineage")
	}
}

func TestLineagePerRow(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2)", ExecOptions{})
	res := mustExec(t, db, "SELECT PROVENANCE a FROM t ORDER BY a", ExecOptions{})
	if len(res.Lineage) != 2 {
		t.Fatalf("lineage rows = %d", len(res.Lineage))
	}
	for i, lin := range res.Lineage {
		if len(lin) != 1 {
			t.Errorf("row %d lineage = %v, want singleton", i, lin)
		}
	}
	// Lineage must follow ORDER BY reordering: row i's lineage tuple has a=i+1.
	for i := range res.Lineage {
		vals, _ := db.LookupVersion(res.LineageRefs(i)[0])
		if vals[0].Int() != int64(i+1) {
			t.Errorf("row %d lineage points at a=%d", i, vals[0].Int())
		}
	}
}

func TestJoinLineageUnionsBothSides(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE a (x INT)", "CREATE TABLE b (y INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1)", ExecOptions{})
	mustExec(t, db, "INSERT INTO b VALUES (1)", ExecOptions{})
	res := mustExec(t, db, "SELECT PROVENANCE x, y FROM a, b WHERE a.x = b.y", ExecOptions{})
	if len(res.Lineage) != 1 {
		t.Fatal("one join row expected")
	}
	counts := lineageTables(res)
	if counts["a"] != 1 || counts["b"] != 1 {
		t.Fatalf("join lineage = %v", counts)
	}
}

func TestAggregateLineageUnionsGroupMembers(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (1, 20), (2, 5)", ExecOptions{})
	res := mustExec(t, db, "SELECT PROVENANCE k, SUM(v) FROM t GROUP BY k ORDER BY k", ExecOptions{})
	if len(res.Lineage[0]) != 2 {
		t.Errorf("group k=1 lineage = %d, want 2", len(res.Lineage[0]))
	}
	if len(res.Lineage[1]) != 1 {
		t.Errorf("group k=2 lineage = %d, want 1", len(res.Lineage[1]))
	}
}

func TestGlobalCountLineageIncludesAllScanned(t *testing.T) {
	// Mirrors paper query Q3: count(*) over a join returns one row whose
	// lineage is every joined input tuple.
	db := newTestDB(t, "CREATE TABLE l (k INT)", "CREATE TABLE o (k INT)")
	mustExec(t, db, "INSERT INTO l VALUES (1), (1), (2)", ExecOptions{})
	mustExec(t, db, "INSERT INTO o VALUES (1), (2)", ExecOptions{})
	res := mustExec(t, db, "SELECT PROVENANCE count(*) FROM l, o WHERE l.k = o.k", ExecOptions{})
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("count = %d", res.Rows[0][0].Int())
	}
	counts := lineageTables(res)
	if counts["l"] != 3 || counts["o"] != 2 {
		t.Fatalf("lineage counts = %v", counts)
	}
}

func TestDistinctMergesLineage(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (1)", ExecOptions{})
	res := mustExec(t, db, "SELECT PROVENANCE DISTINCT a FROM t", ExecOptions{})
	if len(res.Rows) != 1 {
		t.Fatal("distinct must collapse")
	}
	if len(res.Lineage[0]) != 2 {
		t.Fatalf("distinct lineage = %d, want both duplicates", len(res.Lineage[0]))
	}
}

func TestFilteredOutTuplesNotInLineage(t *testing.T) {
	// The paper's Figure 1: tuple t2 is never read by any SQL statement and
	// must not appear in any lineage.
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1), (2), (3)", ExecOptions{})
	res := mustExec(t, db, "SELECT PROVENANCE a FROM t WHERE a <> 2", ExecOptions{})
	for i := range res.Lineage {
		for _, ref := range res.LineageRefs(i) {
			vals, _ := db.LookupVersion(ref)
			if vals[0].Int() == 2 {
				t.Fatal("filtered tuple leaked into lineage")
			}
		}
	}
}

func TestLineageSurvivesVersioning(t *testing.T) {
	// After an update, a provenance query must reference the *new* version.
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	upd := mustExec(t, db, "UPDATE t SET a = 2", ExecOptions{WithLineage: true})
	res := mustExec(t, db, "SELECT PROVENANCE a FROM t", ExecOptions{})
	ref := res.LineageRefs(0)[0]
	if ref.Version != upd.WrittenRefs[0].Version {
		t.Fatalf("lineage version = %d, want post-update %d", ref.Version, upd.WrittenRefs[0].Version)
	}
}

func TestScanStampsUsedBy(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	q := mustExec(t, db, "SELECT PROVENANCE a FROM t", ExecOptions{})
	res := mustExec(t, db, "SELECT prov_usedby FROM t", ExecOptions{})
	if res.Rows[0][0].Int() != q.StmtID {
		t.Fatalf("prov_usedby = %d, want %d", res.Rows[0][0].Int(), q.StmtID)
	}
}

func TestWithLineageOptionEquivalentToKeyword(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})
	res := mustExec(t, db, "SELECT a FROM t", ExecOptions{WithLineage: true})
	if res.Lineage == nil || len(res.Lineage[0]) != 1 {
		t.Fatal("ExecOptions.WithLineage must enable lineage")
	}
}
