package engine

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"ldv/internal/plan"
	"ldv/internal/sqlparse"
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
	// prov_usedby: a lineage statement stamps its version set — here, the
	// rows it returns — once its result is final, so neither its filter nor
	// its select list sees its own stamp, and capturing lineage changes no
	// row. A later lineage read sees the earlier one's stamp.
	const q = "SELECT id, prov_usedby FROM t WHERE k2 > 3"
	const unstamped = "SELECT id, prov_usedby FROM t WHERE prov_usedby = 0"
	for _, sql := range []string{unstamped, q} {
		plain := rowsToStrings(mustExec(t, db, sql, ExecOptions{}))
		sameRows(t, "lineage rows of "+sql, rowsToStrings(mustExec(t, db, sql, ExecOptions{WithLineage: true})), plain)
	}
	prov := mustExec(t, db, "SELECT PROVENANCE"+q[len("SELECT"):], ExecOptions{})
	if len(prov.Rows) == 0 {
		t.Fatal("no rows with k2 > 3")
	}
	var returned []string
	for _, row := range prov.Rows {
		returned = append(returned, row[0].String())
	}
	sameRows(t, "rows stamped by the lineage read",
		rowsToStrings(mustExec(t, db, fmt.Sprintf("SELECT id FROM t WHERE prov_usedby = %d", prov.StmtID), ExecOptions{})), returned)
	for _, row := range mustExec(t, db, q, ExecOptions{WithLineage: true}).Rows {
		if row[1].Int() != prov.StmtID {
			t.Errorf("prov_usedby in a lineage select list = %v, want the previous lineage read's id %d", row[1], prov.StmtID)
		}
	}
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
				if !reflect.DeepEqual(lim.LineageRefs(i), full.LineageRefs(i)) {
					t.Errorf("%s LIMIT %d row %d: lineage %v, un-LIMITed %v", q, n, i, lim.LineageRefs(i), full.LineageRefs(i))
				}
				for _, ref := range lim.LineageRefs(i) {
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

// Key operations — hash join, GROUP BY, DISTINCT, COUNT(DISTINCT) and the
// hash index — hash their keys and confirm candidates by value. Each must
// answer what comparing the values one pair at a time answers, over data
// that makes keys interesting: NULL, 0.0 and -0.0, 2 and 2.0, INTEGERs
// around ±2^53 where neighbours round to one float, and TEXT with NUL bytes
// and multi-byte characters.

var (
	keyInts = []sqlval.Value{sqlval.Null, sqlval.NewInt(0), sqlval.NewInt(2), sqlval.NewInt(-2), sqlval.NewInt(7),
		sqlval.NewInt(1<<53 - 1), sqlval.NewInt(1 << 53), sqlval.NewInt(1<<53 + 1),
		sqlval.NewInt(-1 << 53), sqlval.NewInt(-1<<53 - 1)}
	keyFloats = []sqlval.Value{sqlval.Null, sqlval.NewFloat(0), sqlval.NewFloat(math.Copysign(0, -1)),
		sqlval.NewFloat(2), sqlval.NewFloat(-2), sqlval.NewFloat(2.5), sqlval.NewFloat(7),
		sqlval.NewFloat(1 << 53), sqlval.NewFloat(-1 << 53), sqlval.NewFloat(1<<53 + 2)}
	keyTexts = []sqlval.Value{sqlval.Null, sqlval.NewString(""), sqlval.NewString("a"), sqlval.NewString("a\x00sb"),
		sqlval.NewString("b\x00s"), sqlval.NewString("\x00"), sqlval.NewString("é"), sqlval.NewString("e\u0301"),
		sqlval.NewString("日本"), sqlval.NewString("ü\x00ö")}
)

// keyDB builds a and b (n rows each), both (id, n INT, x FLOAT, s TEXT,
// s2 TEXT) drawn from the key pools, with the given DDL run first.
func keyDB(t *testing.T, seed int64, n int, ddl ...string) *DB {
	t.Helper()
	db := newTestDB(t, append([]string{
		"CREATE TABLE a (id INT PRIMARY KEY, n INT, x FLOAT, s TEXT, s2 TEXT)",
		"CREATE TABLE b (id INT PRIMARY KEY, n INT, x FLOAT, s TEXT, s2 TEXT)",
	}, ddl...)...)
	rng := rand.New(rand.NewSource(seed))
	pick := func(pool []sqlval.Value) sqlval.Value { return pool[rng.Intn(len(pool))] }
	for _, tbl := range []string{"a", "b"} {
		for i := 0; i < n; i++ {
			mustExec(t, db, "INSERT INTO "+tbl+" VALUES (?, ?, ?, ?, ?)", ExecOptions{Params: []sqlval.Value{
				sqlval.NewInt(int64(i)), pick(keyInts), pick(keyFloats), pick(keyTexts), pick(keyTexts)}})
		}
	}
	return db
}

// notDistinct is SQL's IS NOT DISTINCT FROM: two NULLs, or two values
// Compare calls equal.
func notDistinct(u, v sqlval.Value) bool {
	if u.IsNull() || v.IsNull() {
		return u.IsNull() && v.IsNull()
	}
	c, ok := u.Compare(v)
	return ok && c == 0
}

// naiveGroups puts each row in the first earlier group whose first row it
// is not distinct from, column by column, and returns the groups' members
// in order of first appearance.
func naiveGroups(rows [][]sqlval.Value) [][]int {
	var groups [][]int
rows:
	for i, r := range rows {
		for g, m := range groups {
			same := true
			for c := range r {
				same = same && notDistinct(rows[m[0]][c], r[c])
			}
			if same {
				groups[g] = append(groups[g], i)
				continue rows
			}
		}
		groups = append(groups, []int{i})
	}
	return groups
}

// naiveCountDistinct counts the non-NULL values of col among members that
// are distinct from one another.
func naiveCountDistinct(rows [][]sqlval.Value, members []int, col int) int {
	var seen []sqlval.Value
members:
	for _, m := range members {
		v := rows[m][col]
		if v.IsNull() {
			continue
		}
		for _, s := range seen {
			if notDistinct(s, v) {
				continue members
			}
		}
		seen = append(seen, v)
	}
	return len(seen)
}

// keyRow renders a row with each value's kind, so -0 and 0, or 2 and 2.0,
// stay told apart.
func keyRow(vals []sqlval.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%s:%q", v.Kind(), v.String())
	}
	return strings.Join(parts, "|")
}

func keyRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = keyRow(r)
	}
	return out
}

// TestEquivKeyedJoin: a hash join on keys returns what the same predicate
// returns as a filter over the cross join — NOT (x <> y), which the planner
// cannot use as a join key, holds exactly where x = y does — and in the
// same order: a and b are the same size, so b is the build side, and each
// row of a meets its matches in b's order, as the cross join's nested
// loop does.
func TestEquivKeyedJoin(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db := keyDB(t, seed, 40)
		for _, keys := range [][][2]string{
			{{"a.n", "b.n"}}, {{"a.n", "b.x"}}, {{"a.x", "b.n"}}, {{"a.x", "b.x"}}, {{"a.s", "b.s"}}, {{"a.s", "b.s2"}},
			{{"a.s", "b.s"}, {"a.s2", "b.s2"}}, {{"a.n", "b.x"}, {"a.x", "b.n"}}, {{"a.s", "b.s2"}, {"a.n", "b.n"}},
		} {
			var eqs, nes []string
			for _, k := range keys {
				eqs = append(eqs, k[0]+" = "+k[1])
				nes = append(nes, "NOT ("+k[0]+" <> "+k[1]+")")
			}
			cols := "SELECT a.id, b.id, a.n, a.x, a.s, a.s2, b.n, b.x, b.s, b.s2 FROM a, b WHERE "
			hash, filter := cols+strings.Join(eqs, " AND "), cols+strings.Join(nes, " AND ")
			if got, want := joinKeys(t, db, hash), len(keys); got != want {
				t.Fatalf("%s: planned with %d join keys, want %d", hash, got, want)
			}
			if n := joinKeys(t, db, filter); n != 0 {
				t.Fatalf("%s: the reference plans %d join keys", filter, n)
			}
			got, want := keyRows(mustExec(t, db, hash, ExecOptions{})), keyRows(mustExec(t, db, filter, ExecOptions{}))
			sameRows(t, fmt.Sprintf("seed %d: %s", seed, hash), got, want)
		}
	}
}

// joinKeys counts the join keys of the statement's plan.
func joinKeys(t *testing.T, db *DB, sql string) int {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var walk func(plan.Node)
	walk = func(nd plan.Node) {
		if j, ok := nd.(*plan.HashJoinNode); ok {
			n += len(j.LeftKeys)
		}
		for _, c := range nd.Children() {
			walk(c)
		}
	}
	walk(plan.PlanStatement(dbCatalog{db}, stmt).Root)
	return n
}

// TestEquivKeyedGrouping: GROUP BY, DISTINCT and COUNT(DISTINCT) return the
// groups a naive pairwise grouping finds, in order of first appearance,
// each represented by its first row.
func TestEquivKeyedGrouping(t *testing.T) {
	cols := []string{"id", "n", "x", "s", "s2"}
	for seed := int64(1); seed <= 4; seed++ {
		db := keyDB(t, seed, 120)
		mustExec(t, db, "UPDATE a SET x = x * 0 WHERE id < 10", ExecOptions{}) // more -0.0 and 0.0
		mustExec(t, db, "DELETE FROM a WHERE id >= 110", ExecOptions{})
		rows := mustExec(t, db, "SELECT "+strings.Join(cols, ", ")+" FROM a", ExecOptions{}).Rows
		project := func(names []string) [][]sqlval.Value {
			out := make([][]sqlval.Value, len(rows))
			for i, r := range rows {
				for _, name := range names {
					for c, col := range cols {
						if col == name {
							out[i] = append(out[i], r[c])
						}
					}
				}
			}
			return out
		}
		for _, key := range [][]string{{"n"}, {"x"}, {"s"}, {"n", "x"}, {"s", "s2"}, {"x", "s", "n"}} {
			list := strings.Join(key, ", ")
			keyed := project(key)
			groups := naiveGroups(keyed)
			var wantGroups, wantDistinct []string
			for _, m := range groups {
				rep := keyed[m[0]]
				wantDistinct = append(wantDistinct, keyRow(rep))
				wantGroups = append(wantGroups, keyRow(append(append([]sqlval.Value(nil), rep...),
					sqlval.NewInt(int64(len(m))),
					sqlval.NewInt(int64(naiveCountDistinct(rows, m, 1))),
					sqlval.NewInt(int64(naiveCountDistinct(rows, m, 2))),
					sqlval.NewInt(int64(naiveCountDistinct(rows, m, 4))))))
			}
			group := "SELECT " + list + ", count(*), count(DISTINCT n), count(DISTINCT x), count(DISTINCT s2) FROM a GROUP BY " + list
			sameRows(t, fmt.Sprintf("seed %d: %s", seed, group), keyRows(mustExec(t, db, group, ExecOptions{})), wantGroups)
			distinct := "SELECT DISTINCT " + list + " FROM a"
			sameRows(t, fmt.Sprintf("seed %d: %s", seed, distinct), keyRows(mustExec(t, db, distinct, ExecOptions{})), wantDistinct)
		}
	}
}

// TestEquivHashIndexLookup: a hash index's lookupEq returns exactly the
// versions a filter over every version returns — for probes of the
// column's own kind and of the other numeric kind — through inserts,
// updates, deletes, a rolled-back insert and a rebuild, and its key and
// entry counts are the distinct non-NULL keys and the non-NULL versions.
func TestEquivHashIndexLookup(t *testing.T) {
	probes := append(append(append([]sqlval.Value(nil), keyInts...), keyFloats...), keyTexts...)
	for seed := int64(1); seed <= 3; seed++ {
		db := keyDB(t, seed, 80,
			"CREATE INDEX a_n ON a (n) USING hash",
			"CREATE INDEX a_x ON a (x) USING hash",
			"CREATE INDEX a_s ON a (s) USING hash")
		tbl, err := db.lookupTable("a")
		if err != nil {
			t.Fatal(err)
		}
		check := func(stage string) {
			t.Helper()
			for _, ix := range tbl.indexList() {
				var keys []sqlval.Value
				entries := 0
				for _, r := range tbl.rows {
					k := r.vals[ix.col]
					if k.IsNull() {
						continue
					}
					entries++
					if slices.IndexFunc(keys, func(o sqlval.Value) bool { return notDistinct(o, k) }) < 0 {
						keys = append(keys, k)
					}
				}
				if ix.keys.Load() != int64(len(keys)) || ix.entries.Load() != int64(entries) {
					t.Errorf("%s: %s counts %d keys, %d entries; want %d, %d", stage, ix.name, ix.keys.Load(), ix.entries.Load(), len(keys), entries)
				}
				for _, p := range probes {
					var want []*storedRow
					for _, r := range tbl.rows {
						if c, ok := r.vals[ix.col].Compare(p); ok && c == 0 {
							want = append(want, r)
						}
					}
					got := slices.Clone(ix.lookupEq(p))
					byID := func(a, b *storedRow) int { return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.version, b.version)) }
					slices.SortFunc(got, byID)
					slices.SortFunc(want, byID)
					if !slices.Equal(got, want) {
						t.Errorf("%s: %s lookupEq(%s %v) = %d versions, a filter finds %d", stage, ix.name, p.Kind(), p, len(got), len(want))
					}
				}
			}
		}
		check("loaded")
		mustExec(t, db, "UPDATE a SET n = 0, x = -x WHERE id % 5 = 0", ExecOptions{})
		mustExec(t, db, "DELETE FROM a WHERE id % 7 = 0", ExecOptions{})
		s := db.NewSession()
		for _, q := range []string{"BEGIN", "INSERT INTO a VALUES (1000, 12345, 12345.5, 'only here', NULL)", "ROLLBACK"} {
			if _, err := s.Exec(q, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		check("after DML")
		tbl.mu.Lock()
		tbl.rebuildIndexes()
		tbl.mu.Unlock()
		check("rebuilt")
	}
}
