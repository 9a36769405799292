package plan

import (
	"fmt"
	"strings"
	"testing"

	"ldv/internal/sqlparse"
)

// fixedCatalog is a deterministic stand-in for the engine's statistics.
type fixedCatalog map[string]TableStats

func (c fixedCatalog) TableStats(name string) (TableStats, bool) {
	st, ok := c[name]
	return st, ok
}

func testCatalog() fixedCatalog {
	return fixedCatalog{
		"orders": {
			Rows:    10000,
			Columns: []string{"id", "cust", "total", "region"},
			Indexes: []IndexMeta{
				{Name: "ix_cust", Column: "cust", Kind: "hash", Entries: 10000, Distinct: 500},
				{Name: "ix_total", Column: "total", Kind: "ordered", Entries: 10000, Distinct: 9000},
			},
		},
		"customers": {
			Rows:    500,
			Columns: []string{"id", "name", "region"},
			Indexes: []IndexMeta{
				{Name: "ix_name", Column: "name", Kind: "hash", Entries: 500, Distinct: 500},
			},
		},
		"tiny": {
			Rows:    3,
			Columns: []string{"a", "b"},
		},
	}
}

// outline renders a plan tree as one comparable string.
func outline(t *Tree) string {
	if t == nil {
		return "<nil>"
	}
	var parts []string
	for _, n := range t.Nodes() {
		parts = append(parts, fmt.Sprintf("%s[%s]est=%d", n.Op(), n.Detail(), int64(n.EstRows())))
	}
	return strings.Join(parts, ";")
}

// TestPlanDeterminism: the same statement against the same statistics must
// produce byte-identical plans, run after run — EXPLAIN output is a
// regression surface, not a dice roll.
func TestPlanDeterminism(t *testing.T) {
	queries := []string{
		"SELECT id FROM orders WHERE cust = 7",
		"SELECT id FROM orders WHERE total > 100 AND total < 200",
		"SELECT id FROM orders WHERE cust = 7 AND region = 'eu' AND total > 50",
		"SELECT o.id, c.name FROM orders o, customers c WHERE o.cust = c.id",
		"SELECT o.id FROM orders o, customers c, tiny t WHERE o.cust = c.id AND c.region = t.a",
		"SELECT region, count(*) FROM orders GROUP BY region HAVING count(*) > 3 ORDER BY region LIMIT 5",
		"SELECT DISTINCT region FROM orders WHERE total >= 10",
		"UPDATE orders SET total = 0 WHERE cust = 7",
		"DELETE FROM orders WHERE total < 5",
		"SELECT 1",
		"SELECT id FROM orders WHERE cust IN (SELECT id FROM customers WHERE region = (SELECT a FROM tiny)) AND EXISTS (SELECT a FROM tiny)",
		"UPDATE orders SET total = (SELECT MAX(b) FROM tiny) WHERE cust = (SELECT id FROM customers WHERE name = 'x')",
	}
	for _, q := range queries {
		stmt, err := sqlparse.Parse(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		base := outline(PlanStatement(testCatalog(), stmt))
		for i := 0; i < 20; i++ {
			// Re-parse too: plan identity must not depend on AST pointer
			// values or parse order.
			stmt2, _ := sqlparse.Parse(q)
			if got := outline(PlanStatement(testCatalog(), stmt2)); got != base {
				t.Fatalf("%q: plan diverged on run %d:\n  %s\n  %s", q, i, base, got)
			}
		}
	}
}

// TestPlanIndexSelection pins the planner's core choices so cost-model
// changes show up as explicit test diffs.
func TestPlanIndexSelection(t *testing.T) {
	cases := []struct {
		sql     string
		want    string // substring that must appear in the outline
		absent  string // substring that must not
		comment string
	}{
		{"SELECT id FROM orders WHERE cust = 7", "index_scan[orders via ix_cust", "", "equality on a hash-indexed column"},
		{"SELECT id FROM orders WHERE total > 100", "index_scan[orders via ix_total", "", "range on an ordered index"},
		{"SELECT id FROM orders WHERE region = 'eu'", "scan[orders]", "index_scan", "no index on region"},
		{"SELECT id FROM orders WHERE cust > 3", "scan[orders]", "index_scan", "hash index cannot serve a range"},
		{"SELECT id FROM orders WHERE cust = id", "scan[orders]", "index_scan", "non-literal probe is not indexable"},
		{"SELECT o.id FROM orders o, customers c WHERE o.cust = c.id", "hash_join", "", "equi-join plans a hash join"},
		{"SELECT id FROM orders WHERE cust = (SELECT id FROM customers WHERE name = 'x')", "index_scan[orders via ix_cust (cust = (SELECT", "", "a scalar subquery is a run-time constant"},
		{"UPDATE orders SET region = 'eu' WHERE total <= (SELECT MAX(b) FROM tiny)", "index_scan[orders via ix_total (total <= (SELECT", "", "in DML too"},
		{"SELECT id FROM orders WHERE cust IN (SELECT id FROM customers)", "scan[orders]", "index_scan", "an IN-subquery is a set, not a probe key"},
	}
	for _, c := range cases {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		got := outline(PlanStatement(testCatalog(), stmt))
		if !strings.Contains(got, c.want) {
			t.Errorf("%s (%q):\n  outline %s\n  missing %q", c.comment, c.sql, got, c.want)
		}
		if c.absent != "" && strings.Contains(got, c.absent) {
			t.Errorf("%s (%q):\n  outline %s\n  must not contain %q", c.comment, c.sql, got, c.absent)
		}
	}
}

// TestPlanJoinOrder: the greedy reorderer starts from the smallest base
// table, so the big probe side lands opposite small builds.
func TestPlanJoinOrder(t *testing.T) {
	stmt, err := sqlparse.Parse(
		"SELECT o.id FROM orders o, tiny t, customers c WHERE o.cust = c.id AND c.region = t.a")
	if err != nil {
		t.Fatal(err)
	}
	tree := PlanStatement(testCatalog(), stmt)
	got := outline(tree)
	// tiny (3 rows, alias t) must be scanned before orders (10000 rows,
	// alias o) in the post-order walk once reordering applies.
	ti, oi := strings.Index(got, "scan[t]"), strings.Index(got, "scan[o]")
	if ti < 0 || oi < 0 || ti > oi {
		t.Errorf("join order outline = %s, want tiny joined before orders", got)
	}
	if !tree.Reordered {
		t.Errorf("tree.Reordered = false, want true for %s", got)
	}
}

// nestedSubquery is a query over tiny with levels subqueries nested in its
// WHERE clause.
func nestedSubquery(levels int) string {
	sql := "SELECT MAX(a) FROM tiny"
	for i := 0; i < levels; i++ {
		sql = "SELECT MAX(a) FROM tiny WHERE b <= (" + sql + ")"
	}
	return sql
}

// checkInitPlans asserts what the executor relies on: every init-plan's
// expression is a subquery, its tree is that subquery's plan, and the one
// thing planning leaves out — a tree past the nesting cap — is left out
// exactly there.
func checkInitPlans(t *testing.T, tree *Tree, depth int) {
	t.Helper()
	for _, ip := range tree.Init {
		q := sqlparse.Subquery(ip.Expr)
		switch {
		case q == nil:
			t.Fatalf("init-plan over %T, which runs no query", ip.Expr)
		case ip.Tree == nil:
			if depth < MaxSubqueryDepth {
				t.Fatalf("subquery %s at depth %d was not planned", q, depth)
			}
		case depth >= MaxSubqueryDepth:
			t.Fatalf("subquery %s planned at depth %d, past the cap", q, depth)
		case ip.Tree.Select != q:
			t.Fatalf("init-plan of %s carries the tree of %s", q, ip.Tree.Select)
		default:
			checkInitPlans(t, ip.Tree, depth+1)
		}
	}
}

// TestPlanInitPlans: subqueries become init-plans in the order the statement
// spells them, nested ones inside their parent's tree, rendered before the
// operators that read them; past the cap the init-plan has no tree.
func TestPlanInitPlans(t *testing.T) {
	stmt, err := sqlparse.Parse("UPDATE orders SET total = (SELECT MAX(b) FROM tiny)" +
		" WHERE cust IN (SELECT id FROM customers WHERE region = (SELECT a FROM tiny WHERE b = 1)) AND EXISTS (SELECT id FROM customers)")
	if err != nil {
		t.Fatal(err)
	}
	tree := PlanStatement(testCatalog(), stmt)
	checkInitPlans(t, tree, 0)
	var got []string
	for _, ip := range tree.Init {
		got = append(got, fmt.Sprintf("%T/%d", ip.Expr, len(ip.Tree.Init)))
	}
	if want := "*sqlparse.SubqueryExpr/0 *sqlparse.InExpr/1 *sqlparse.ExistsExpr/0"; strings.Join(got, " ") != want {
		t.Errorf("init-plans = %v, want %s", got, want)
	}
	var ops []string
	for _, n := range tree.Nodes() {
		ops = append(ops, n.Op()+"["+n.Detail()+"]")
	}
	want := "scan[tiny] aggregate[] project[]" + // SET
		" scan[tiny] filter[(b = 1)] project[]" + // nested in the IN-subquery
		" scan[customers] filter[(region = (SELECT a FROM tiny WHERE (b = 1)))] project[]" +
		" scan[customers] project[]" + // EXISTS
		" scan[orders] filter[(cust IN (SELECT id FROM customers WHERE (region = (SELECT a FROM tiny WHERE (b = 1))))), EXISTS (SELECT id FROM customers)] update[orders]"
	if strings.Join(ops, " ") != want {
		t.Errorf("Nodes() =\n  %s\nwant\n  %s", strings.Join(ops, " "), want)
	}

	for _, c := range []struct {
		levels  int
		planned bool
	}{{MaxSubqueryDepth, true}, {MaxSubqueryDepth + 1, false}} {
		stmt, err := sqlparse.Parse(nestedSubquery(c.levels))
		if err != nil {
			t.Fatal(err)
		}
		tree := PlanStatement(testCatalog(), stmt)
		checkInitPlans(t, tree, 0)
		levels := 0
		for len(tree.Init) == 1 && tree.Init[0].Tree != nil {
			tree = tree.Init[0].Tree
			levels++
		}
		if planned := len(tree.Init) == 0; planned != c.planned || levels != MaxSubqueryDepth {
			t.Errorf("%d levels: planned %d of them, all planned %v; want %d, %v", c.levels, levels, planned, MaxSubqueryDepth, c.planned)
		}
	}
}

// FuzzPlan lowers arbitrary parsed statements: whatever parses must plan
// without panicking, and every node must render.
func FuzzPlan(f *testing.F) {
	seeds := []string{
		"SELECT id FROM orders WHERE cust = 7",
		"SELECT * FROM orders o, customers c WHERE o.cust = c.id AND c.name = 'x'",
		"SELECT region, count(*) FROM orders GROUP BY region ORDER BY 1 DESC LIMIT 3",
		"UPDATE orders SET total = total + 1 WHERE total < 10 AND cust = 2",
		"DELETE FROM nowhere WHERE x = 1",
		"SELECT DISTINCT a FROM tiny WHERE b > 'q' AND b <= 'z'",
		"INSERT INTO tiny VALUES (1, 2)",
		"SELECT id FROM orders WHERE cust = 7 OR total > 9",
		"SELECT 1 + 2",
		"SELECT id, (SELECT MAX(a) FROM tiny) FROM orders o JOIN customers c ON o.cust = c.id AND c.id IN (SELECT a FROM tiny)" +
			" WHERE EXISTS (SELECT 1 FROM tiny) GROUP BY (SELECT 1) HAVING count(*) > (SELECT MIN(b) FROM tiny) ORDER BY (SELECT 2)",
		"INSERT INTO tiny VALUES ((SELECT MAX(a) FROM tiny) + 1, (SELECT count(*) FROM orders WHERE cust IN (SELECT id FROM customers)))",
		"INSERT INTO tiny SELECT id, cust FROM orders WHERE total > (SELECT AVG(total) FROM orders)",
		"UPDATE orders SET total = (SELECT MAX(b) FROM tiny), region = (SELECT name FROM customers WHERE id = 1) WHERE cust = (SELECT id FROM customers WHERE name = 'x')",
		"DELETE FROM orders WHERE NOT EXISTS (SELECT id FROM customers WHERE region = (SELECT a FROM tiny)) OR cust NOT IN (SELECT id FROM nowhere)",
		nestedSubquery(MaxSubqueryDepth + 3),
		"DELETE FROM tiny WHERE a IN (" + nestedSubquery(MaxSubqueryDepth) + ")",
		"UPDATE tiny SET a = (" + nestedSubquery(MaxSubqueryDepth+1) + ")",
		"INSERT INTO tiny VALUES ((" + nestedSubquery(MaxSubqueryDepth+1) + "), 0)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Skip()
		}
		cat := testCatalog()
		tree := PlanStatement(cat, stmt)
		if tree == nil {
			return
		}
		for _, n := range tree.Nodes() {
			_ = n.Op()
			_ = n.Detail()
			_ = n.EstRows()
			_ = n.Lineage()
		}
		checkInitPlans(t, tree, 0)
		// Planning twice yields the same tree.
		if a, b := outline(tree), outline(PlanStatement(cat, stmt)); a != b {
			t.Fatalf("nondeterministic plan for %q:\n  %s\n  %s", sql, a, b)
		}
	})
}
