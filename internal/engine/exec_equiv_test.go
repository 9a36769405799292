package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

// Equivalence tests for the access path: every shortcut the executor takes
// (fused and pruned leaves, index probes, top-N, the LIMIT stop, IN sets)
// must return exactly what the long way round returns. Data is seeded and
// has what makes the shortcuts interesting: duplicate and NULL keys, dead
// versions from updates and deletes, int and float columns.

// equivDB builds t (n rows) and u (a small dimension over t.k).
func equivDB(t *testing.T, seed int64, n int) *DB {
	t.Helper()
	db := newTestDB(t,
		"CREATE TABLE t (id INT PRIMARY KEY, k INT, k2 FLOAT, s TEXT)",
		"CREATE TABLE u (k INT, label TEXT, w FLOAT)")
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		k, s := fmt.Sprint(rng.Intn(12)), fmt.Sprintf("'s%02d'", rng.Intn(20))
		if rng.Intn(10) == 0 {
			k = "NULL"
		}
		if rng.Intn(15) == 0 {
			s = "NULL"
		}
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, %s, %d.5, %s)", i, k, rng.Intn(6), s), ExecOptions{})
	}
	for k := 0; k < 12; k += 2 {
		mustExec(t, db, fmt.Sprintf("INSERT INTO u VALUES (%d, 'l%d', %d.25)", k, k, k), ExecOptions{})
	}
	// Dead versions: the scans below must skip them.
	for i := 0; i < n/8; i++ {
		mustExec(t, db, fmt.Sprintf("UPDATE t SET k2 = k2 + 1 WHERE id = %d", rng.Intn(n)), ExecOptions{})
		mustExec(t, db, fmt.Sprintf("DELETE FROM t WHERE id = %d", rng.Intn(n)), ExecOptions{})
	}
	return db
}

func sameRows(t *testing.T, what string, got, want []string) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s:\n got  %v\n want %v", what, got, want)
	}
}

func TestEquivTopN(t *testing.T) {
	db := equivDB(t, 1, 160)
	total := len(mustExec(t, db, "SELECT id FROM t", ExecOptions{}).Rows)
	queries := []string{
		"SELECT id, k, s FROM t ORDER BY k",
		"SELECT id, k, s FROM t ORDER BY k DESC",
		"SELECT id, k, k2 FROM t ORDER BY k, k2",
		"SELECT id, k, k2 FROM t ORDER BY k DESC, k2",
		"SELECT id, k AS kk FROM t ORDER BY kk",
		"SELECT id, k + k2 AS score FROM t ORDER BY score DESC, s",
		"SELECT id, s FROM t WHERE k2 > 2 ORDER BY s DESC, k",
		"SELECT DISTINCT k, k2 FROM t ORDER BY k2 DESC, k",
		"SELECT k, count(*) AS n FROM t GROUP BY k ORDER BY n DESC",
		"SELECT t.id, u.label FROM t, u WHERE t.k = u.k ORDER BY u.w DESC",
	}
	for _, q := range queries {
		full := rowsToStrings(mustExec(t, db, q, ExecOptions{}))
		for _, n := range []int{0, 1, 7, len(full), total + 5} {
			want := full
			if n < len(want) {
				want = want[:n]
			}
			got := rowsToStrings(mustExec(t, db, fmt.Sprintf("%s LIMIT %d", q, n), ExecOptions{}))
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s LIMIT %d:\n got  %v\n want %v", q, n, got, want)
			}
		}
	}
}

func TestEquivLimitStop(t *testing.T) {
	db := equivDB(t, 2, 160)
	for _, q := range []string{
		"SELECT id, k FROM t",
		"SELECT id, k FROM t WHERE k > 3",
		"SELECT * FROM t WHERE s = 's03' AND k2 < 4",
		"SELECT id FROM t WHERE prov_v > 100",
	} {
		full := rowsToStrings(mustExec(t, db, q, ExecOptions{}))
		for _, n := range []int{0, 1, 5, len(full) + 3} {
			want := full
			if n < len(want) {
				want = want[:n]
			}
			got := rowsToStrings(mustExec(t, db, fmt.Sprintf("%s LIMIT %d", q, n), ExecOptions{}))
			if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
				t.Errorf("%s LIMIT %d:\n got  %v\n want %v", q, n, got, want)
			}
		}
	}
}

// project picks the named columns out of a SELECT * result.
func projectColumns(t *testing.T, res *Result, names ...string) []string {
	t.Helper()
	idx := make([]int, len(names))
	for i, n := range names {
		idx[i] = -1
		for j, c := range res.Columns {
			if c == n {
				idx[i] = j
			}
		}
		if idx[i] < 0 {
			t.Fatalf("column %q not in %v", n, res.Columns)
		}
	}
	out := make([]string, len(res.Rows))
	for r, row := range res.Rows {
		parts := make([]string, len(idx))
		for i, j := range idx {
			parts[i] = row[j].String()
		}
		out[r] = strings.Join(parts, "|")
	}
	return out
}

func TestEquivPrunedProjection(t *testing.T) {
	db := equivDB(t, 3, 160)
	for _, where := range []string{"k > 4", "s LIKE 's1%' AND k2 >= 2", "k IS NULL OR s IS NULL", "id BETWEEN 20 AND 90"} {
		star := mustExec(t, db, "SELECT * FROM t WHERE "+where, ExecOptions{})
		for _, cols := range [][]string{{"id"}, {"s", "id"}, {"k2", "k"}, {"id", "k", "k2", "s"}} {
			got := rowsToStrings(mustExec(t, db, fmt.Sprintf("SELECT %s FROM t WHERE %s", strings.Join(cols, ", "), where), ExecOptions{}))
			sameRows(t, fmt.Sprintf("SELECT %v WHERE %s", cols, where), got, projectColumns(t, star, cols...))
		}
	}
	// No column at all: the leaf emits zero-width tuples.
	n := len(mustExec(t, db, "SELECT * FROM t WHERE k > 4", ExecOptions{}).Rows)
	if got := mustExec(t, db, "SELECT count(*) FROM t WHERE k > 4", ExecOptions{}).Rows[0][0].Int(); int(got) != n {
		t.Errorf("count(*) = %d, SELECT * returns %d rows", got, n)
	}
}

func TestEquivIndexedPlan(t *testing.T) {
	queries := []string{
		"SELECT id, k FROM t WHERE k = 3",
		"SELECT id, s FROM t WHERE k >= 2 AND k < 7 AND s <> 's05'",
		"SELECT id FROM t WHERE k BETWEEN 4 AND 9 ORDER BY id DESC LIMIT 6",
		"SELECT id FROM t WHERE s = 's07'",
		"SELECT id FROM t WHERE k = 3.0",
		"SELECT id FROM t WHERE k = 2.5",
		"SELECT t.id, u.label FROM t, u WHERE t.k = u.k AND t.k > 5",
	}
	dml := []string{
		"UPDATE t SET k2 = k2 * 2 WHERE k = 4",
		"DELETE FROM t WHERE k > 8 AND s = 's01'",
		"UPDATE t SET k = k + 1 WHERE k BETWEEN 2 AND 3",
		"DELETE FROM t WHERE s = 's11'",
	}
	indexed, plain := equivDB(t, 4, 160), equivDB(t, 4, 160)
	mustExec(t, indexed, "CREATE INDEX ix_k ON t (k) USING ordered", ExecOptions{})
	mustExec(t, indexed, "CREATE INDEX ix_s ON t (s) USING hash", ExecOptions{})
	// An index returns its candidates in key order, a scan in heap order:
	// without ORDER BY the two plans owe the same rows, not the same order.
	compare := func(stage string) {
		for _, q := range queries {
			a, b := rowsToStrings(mustExec(t, indexed, q, ExecOptions{})), rowsToStrings(mustExec(t, plain, q, ExecOptions{}))
			if !strings.Contains(q, "ORDER BY") {
				sort.Strings(a)
				sort.Strings(b)
			}
			sameRows(t, stage+": "+q, a, b)
		}
	}
	if ops := analyzeOps(t, indexed, queries[0]); !hasOp(ops, "index_scan") {
		t.Fatalf("indexed database does not plan an index scan: %v", ops)
	}
	compare("fresh")
	for _, d := range dml {
		a, b := mustExec(t, indexed, d, ExecOptions{}), mustExec(t, plain, d, ExecOptions{})
		if a.RowsAffected != b.RowsAffected {
			t.Errorf("%s: %d rows with indexes, %d without", d, a.RowsAffected, b.RowsAffected)
		}
	}
	compare("after DML")
	mustExec(t, indexed, "DROP INDEX ix_k", ExecOptions{})
	mustExec(t, indexed, "DROP INDEX ix_s", ExecOptions{})
	compare("after DROP INDEX")
}

func TestEquivHiddenAttributes(t *testing.T) {
	db := equivDB(t, 5, 60)
	listing := mustExec(t, db, "SELECT id, prov_rowid, prov_v FROM t", ExecOptions{})
	if len(listing.Rows) < 10 {
		t.Fatalf("only %d rows", len(listing.Rows))
	}
	// SELECT * never shows them; naming them does, in the fused filter too.
	if cols := mustExec(t, db, "SELECT * FROM t", ExecOptions{}).Columns; len(cols) != 4 {
		t.Errorf("SELECT * columns = %v", cols)
	}
	for _, row := range listing.Rows[:10] {
		id, rid, v := row[0].Int(), row[1].Int(), row[2].Int()
		got := rowsToStrings(mustExec(t, db, fmt.Sprintf("SELECT id, prov_v FROM t WHERE prov_rowid = %d AND prov_v = %d", rid, v), ExecOptions{}))
		sameRows(t, "SELECT by prov_rowid/prov_v", got, []string{fmt.Sprintf("%d|%d", id, v)})
	}
	// UPDATE reads them in WHERE and SET; the new version keeps the row id.
	id, rid, v := listing.Rows[0][0].Int(), listing.Rows[0][1].Int(), listing.Rows[0][2].Int()
	if res := mustExec(t, db, fmt.Sprintf("UPDATE t SET k = prov_rowid WHERE prov_v = %d", v), ExecOptions{}); res.RowsAffected != 1 {
		t.Fatalf("UPDATE by prov_v affected %d rows", res.RowsAffected)
	}
	sameRows(t, "k after SET k = prov_rowid",
		rowsToStrings(mustExec(t, db, fmt.Sprintf("SELECT k, prov_rowid FROM t WHERE id = %d", id), ExecOptions{})),
		[]string{fmt.Sprintf("%d|%d", rid, rid)})
	// prov_usedby: a lineage scan stamps every visible version it examines
	// with its statement id, before the filter and the select list read it.
	visible := rowsToStrings(mustExec(t, db, "SELECT id FROM t", ExecOptions{}))
	prov := mustExec(t, db, "SELECT PROVENANCE id, prov_usedby FROM t WHERE k2 > 3", ExecOptions{})
	for _, row := range prov.Rows {
		if row[1].Int() != prov.StmtID {
			t.Errorf("prov_usedby in a lineage select list = %v, want the statement's id %d", row[1], prov.StmtID)
		}
	}
	sameRows(t, "rows stamped by the lineage scan",
		rowsToStrings(mustExec(t, db, fmt.Sprintf("SELECT id FROM t WHERE prov_usedby = %d", prov.StmtID), ExecOptions{})), visible)
	self := mustExec(t, db, "SELECT PROVENANCE id FROM t WHERE prov_usedby > 0 AND k2 > 3", ExecOptions{})
	if len(self.Rows) != len(prov.Rows) {
		t.Errorf("filter on prov_usedby under lineage: %d rows, want %d", len(self.Rows), len(prov.Rows))
	}
	// DELETE by hidden attribute.
	if res := mustExec(t, db, fmt.Sprintf("DELETE FROM t WHERE prov_rowid = %d", rid), ExecOptions{}); res.RowsAffected != 1 {
		t.Errorf("DELETE by prov_rowid affected %d rows", res.RowsAffected)
	}
	if got := mustExec(t, db, fmt.Sprintf("SELECT id FROM t WHERE id = %d", id), ExecOptions{}); len(got.Rows) != 0 {
		t.Errorf("row %d survived DELETE by prov_rowid", id)
	}
}

func TestEquivProvenanceLimit(t *testing.T) {
	db := equivDB(t, 6, 120)
	for _, q := range []string{
		"SELECT PROVENANCE id, k FROM t WHERE k2 > 2",
		"SELECT PROVENANCE id, k FROM t ORDER BY k DESC, id",
		"SELECT PROVENANCE t.id, u.label FROM t, u WHERE t.k = u.k",
		"SELECT PROVENANCE k, count(*) FROM t GROUP BY k ORDER BY k",
	} {
		full := mustExec(t, db, q, ExecOptions{})
		for _, n := range []int{1, 4, len(full.Rows) + 2} {
			lim := mustExec(t, db, fmt.Sprintf("%s LIMIT %d", q, n), ExecOptions{})
			want := n
			if want > len(full.Rows) {
				want = len(full.Rows)
			}
			if len(lim.Rows) != want || len(lim.Lineage) != want {
				t.Fatalf("%s LIMIT %d: %d rows, %d lineage entries, want %d", q, n, len(lim.Rows), len(lim.Lineage), want)
			}
			sameRows(t, fmt.Sprintf("%s LIMIT %d", q, n), rowsToStrings(lim), rowsToStrings(full)[:want])
			for i := range lim.Rows {
				if !reflect.DeepEqual(lim.Lineage[i], full.Lineage[i]) {
					t.Errorf("%s LIMIT %d row %d: lineage %v, un-LIMITed %v", q, n, i, lim.Lineage[i], full.Lineage[i])
				}
				for _, ref := range lim.Lineage[i] {
					vals, ok := lim.TupleValues.Lookup(ref)
					if fullVals, _ := full.TupleValues.Lookup(ref); !ok {
						t.Errorf("%s LIMIT %d: TupleValues misses lineage ref %v", q, n, ref)
					} else if !reflect.DeepEqual(vals, fullVals) {
						t.Errorf("%s LIMIT %d: TupleValues[%v] = %v, un-LIMITed %v", q, n, ref, vals, fullVals)
					}
				}
			}
		}
	}
}

// inResults lists "id:value" for a boolean select-list expression.
func inResults(t *testing.T, db *DB, expr string, params []sqlval.Value) []string {
	t.Helper()
	res, err := db.Exec("SELECT id, "+expr+" FROM t", ExecOptions{Params: params})
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	return rowsToStrings(res)
}

func TestEquivInList(t *testing.T) {
	db := equivDB(t, 7, 120)
	// Each list against the comparison chain it abbreviates.
	cases := []struct {
		probe string
		list  []string
	}{
		{"k", []string{"3"}},
		{"k", []string{"1", "5", "9"}},
		{"k", []string{"1", "NULL", "9"}},
		{"k", []string{"NULL"}},
		{"k", []string{"2.0", "7.5", "11"}},
		{"k2", []string{"1", "2.5", "3.5"}},
		{"k", []string{"'s01'", "4"}},
		{"s", []string{"'s01'", "'s19'", "NULL"}},
		{"s", []string{"3", "'s04'"}},
		{"k + 1", []string{"4", "8"}},
	}
	for _, c := range cases {
		var eqs []string
		for _, m := range c.list {
			eqs = append(eqs, fmt.Sprintf("%s = %s", c.probe, m))
		}
		chain, list := "("+strings.Join(eqs, " OR ")+")", strings.Join(c.list, ", ")
		sameRows(t, fmt.Sprintf("%s IN (%s)", c.probe, list),
			inResults(t, db, fmt.Sprintf("%s IN (%s)", c.probe, list), nil), inResults(t, db, chain, nil))
		sameRows(t, fmt.Sprintf("%s NOT IN (%s)", c.probe, list),
			inResults(t, db, fmt.Sprintf("%s NOT IN (%s)", c.probe, list), nil), inResults(t, db, "NOT "+chain, nil))
		sameRows(t, fmt.Sprintf("WHERE %s NOT IN (%s)", c.probe, list),
			rowsToStrings(mustExec(t, db, fmt.Sprintf("SELECT id FROM t WHERE %s NOT IN (%s)", c.probe, list), ExecOptions{})),
			rowsToStrings(mustExec(t, db, "SELECT id FROM t WHERE NOT "+chain, ExecOptions{})))
	}
	// Parameters are constants of the execution.
	params := []sqlval.Value{sqlval.NewInt(2), sqlval.NewFloat(6), sqlval.Null}
	sameRows(t, "IN (?, ?, ?)", inResults(t, db, "k IN (?, ?, ?)", params), inResults(t, db, "k IN (2, 6.0, NULL)", nil))
	sameRows(t, "NOT IN (?, ?)", inResults(t, db, "k NOT IN (?, ?)", params[:2]), inResults(t, db, "k NOT IN (2, 6.0)", nil))
	// 1 000 members: against the same list with a member only known per row
	// (id * 0 + 1 is 1), which is evaluated member by member.
	members := make([]string, 1000)
	for i := range members {
		members[i] = fmt.Sprint(1 + 3*i)
	}
	big := strings.Join(members, ", ")
	for _, not := range []string{"", "NOT "} {
		sameRows(t, not+"IN (1000 members)",
			inResults(t, db, fmt.Sprintf("k %sIN (%s)", not, big), nil),
			inResults(t, db, fmt.Sprintf("k %sIN (%s, id * 0 + 1)", not, big), nil))
		sameRows(t, not+"IN (1000 members, NULL)",
			inResults(t, db, fmt.Sprintf("k %sIN (%s, NULL)", not, big), nil),
			inResults(t, db, fmt.Sprintf("k %sIN (%s, NULL, id * 0 + 1)", not, big), nil))
	}
	// 0 members, which only a subquery can produce: no comparison happens,
	// so the result is FALSE — NULL for a NULL probe.
	for _, not := range []string{"", "NOT "} {
		want := "k IS NULL AND NULL"
		if not != "" {
			want = "k IS NOT NULL OR NULL"
		}
		sameRows(t, not+"IN (empty subquery)",
			inResults(t, db, fmt.Sprintf("k %sIN (SELECT k FROM u WHERE 1 = 0)", not), nil), inResults(t, db, want, nil))
	}
	// A subquery's rows arrive as a constant list.
	sameRows(t, "IN (subquery)",
		rowsToStrings(mustExec(t, db, "SELECT id FROM t WHERE k IN (SELECT k FROM u WHERE w > 3)", ExecOptions{})),
		rowsToStrings(mustExec(t, db, "SELECT id FROM t WHERE k = 4 OR k = 6 OR k = 8 OR k = 10", ExecOptions{})))
}

// TestEquivCachedSubqueryPlan: a prepared statement with a scalar, an EXISTS
// and an IN subquery returns from its cached plan what a fresh plan of the
// same text returns, while rows under each subquery come and go between
// executions — the tree keeps nothing an earlier execution computed.
func TestEquivCachedSubqueryPlan(t *testing.T) {
	db := equivDB(t, 11, 120)
	const sql = "SELECT id, k FROM t WHERE k2 < (SELECT MAX(w) FROM u WHERE k < ?)" +
		" AND EXISTS (SELECT k FROM u WHERE label = ?) AND k IN (SELECT k FROM u WHERE w > ?) ORDER BY id"
	ps, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	defer s.Close()
	args := func(below int64, label string, above float64) []sqlval.Value {
		return []sqlval.Value{sqlval.NewInt(below), sqlval.NewString(label), sqlval.NewFloat(above)}
	}
	steps := []struct {
		change []string // applied before the execution
		params []sqlval.Value
	}{
		{nil, args(12, "l0", 3)},
		{[]string{"DELETE FROM u WHERE k = 4", "INSERT INTO u VALUES (3, 'l3', 9.75)"}, args(12, "l0", 3)},
		{[]string{"DELETE FROM u WHERE label = 'l0'"}, args(12, "l0", 3)}, // EXISTS turns false
		{[]string{"INSERT INTO u VALUES (0, 'l0', 0.25)", "DELETE FROM u WHERE k = 3"}, args(4, "l0", 1)},
		{[]string{"DELETE FROM u WHERE k < 4"}, args(4, "l6", 1)}, // the scalar turns NULL
		{[]string{"INSERT INTO u VALUES (1, 'l1', 4.75)"}, args(4, "l6", 7)},
	}
	seen := map[string]bool{}
	for i, st := range steps {
		for _, sql := range st.change {
			mustExec(t, db, sql, ExecOptions{})
		}
		res, err := s.ExecPrepared(ps, st.params, ExecOptions{})
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got := rowsToStrings(res)
		sameRows(t, fmt.Sprintf("step %d, cached plan vs fresh plan", i),
			got, rowsToStrings(mustExec(t, db, sql, ExecOptions{Params: st.params})))
		seen[strings.Join(got, " ")] = true
	}
	if len(seen) < 5 || !seen[""] {
		t.Errorf("the steps produced %d distinct results (an empty one: %v); the data no longer exercises the subqueries", len(seen), seen[""])
	}
	if hits := ps.CacheHits(); hits != int64(len(steps)-1) {
		t.Errorf("CacheHits = %d, want %d: every execution after the first runs the cached tree", hits, len(steps)-1)
	}
}

func TestEquivJoinReorderKeepsStarOrder(t *testing.T) {
	db := equivDB(t, 8, 160)
	// u is far smaller, so the planner starts from it although t is first.
	q := "FROM t, u WHERE t.k = u.k AND u.w > 1"
	if ops := analyzeOps(t, db, "SELECT * "+q); !hasOp(ops, "hash_join") {
		t.Fatalf("no hash join in %v", ops)
	}
	star := mustExec(t, db, "SELECT * "+q, ExecOptions{})
	if want := []string{"id", "k", "k2", "s", "k", "label", "w"}; !reflect.DeepEqual(star.Columns, want) {
		t.Fatalf("SELECT * columns = %v, want %v", star.Columns, want)
	}
	explicit := mustExec(t, db, "SELECT t.id, t.k, t.k2, t.s, u.k, u.label, u.w "+q, ExecOptions{})
	sameRows(t, "SELECT * vs every column named", rowsToStrings(star), rowsToStrings(explicit))
	some := mustExec(t, db, "SELECT u.label, t.id "+q, ExecOptions{})
	want := make([]string, len(star.Rows))
	for i, r := range star.Rows {
		want[i] = r[5].String() + "|" + r[0].String()
	}
	sameRows(t, "pruned join columns", rowsToStrings(some), want)
	mixed := mustExec(t, db, "SELECT u.*, t.s "+q, ExecOptions{})
	if wantCols := []string{"k", "label", "w", "s"}; !reflect.DeepEqual(mixed.Columns, wantCols) {
		t.Errorf("SELECT u.*, t.s columns = %v, want %v", mixed.Columns, wantCols)
	}
	// Same multiset either way round in FROM.
	a := rowsToStrings(mustExec(t, db, "SELECT t.id, u.label FROM t, u WHERE t.k = u.k", ExecOptions{}))
	b := rowsToStrings(mustExec(t, db, "SELECT t.id, u.label FROM u, t WHERE t.k = u.k", ExecOptions{}))
	sort.Strings(a)
	sort.Strings(b)
	sameRows(t, "join commutes", a, b)
}
