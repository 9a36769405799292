package sqlparse

import (
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return stmt
}

func TestParseSimpleSelect(t *testing.T) {
	s := mustParse(t, "SELECT a, b FROM t WHERE a > 5").(*Select)
	if len(s.Items) != 2 || len(s.From) != 1 || s.Where == nil {
		t.Fatalf("unexpected structure: %+v", s)
	}
	if s.From[0].Name != "t" {
		t.Errorf("table = %q", s.From[0].Name)
	}
	be, ok := s.Where.(*BinaryExpr)
	if !ok || be.Op != ">" {
		t.Fatalf("where = %v", s.Where)
	}
}

func TestParseSelectStar(t *testing.T) {
	s := mustParse(t, "SELECT * FROM t").(*Select)
	if !s.Items[0].Star {
		t.Error("expected star item")
	}
	s = mustParse(t, "SELECT t.* FROM t").(*Select)
	if !s.Items[0].Star || s.Items[0].Table != "t" {
		t.Errorf("expected qualified star, got %+v", s.Items[0])
	}
}

func TestParseProvenanceKeyword(t *testing.T) {
	s := mustParse(t, "SELECT PROVENANCE a FROM t").(*Select)
	if !s.Provenance {
		t.Error("PROVENANCE flag not set")
	}
	s = mustParse(t, "SELECT a FROM t").(*Select)
	if s.Provenance {
		t.Error("PROVENANCE flag wrongly set")
	}
}

func TestParsePaperQ1(t *testing.T) {
	// Table II, Q1.
	src := `SELECT l_quantity, l_partkey, l_extendedprice, l_shipdate, l_receiptdate
	        FROM lineitem WHERE l_suppkey BETWEEN 1 AND 100`
	s := mustParse(t, src).(*Select)
	if len(s.Items) != 5 {
		t.Fatalf("items = %d", len(s.Items))
	}
	b, ok := s.Where.(*BetweenExpr)
	if !ok {
		t.Fatalf("where = %T", s.Where)
	}
	if b.Lo.(*Literal).Value.Int() != 1 || b.Hi.(*Literal).Value.Int() != 100 {
		t.Error("between bounds wrong")
	}
}

func TestParsePaperQ2(t *testing.T) {
	// Table II, Q2: comma join of three tables with LIKE.
	src := `SELECT o_comment, l_comment FROM lineitem l, orders o, customer c
	        WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey
	        AND c.c_name LIKE '%0000000%'`
	s := mustParse(t, src).(*Select)
	if len(s.From) != 3 {
		t.Fatalf("from = %d", len(s.From))
	}
	if s.From[0].Alias != "l" || s.From[1].Alias != "o" || s.From[2].Alias != "c" {
		t.Errorf("aliases: %+v", s.From)
	}
	if !strings.Contains(s.String(), "LIKE") {
		t.Error("LIKE missing from rendering")
	}
}

func TestParsePaperQ3(t *testing.T) {
	src := `SELECT count(*) FROM lineitem l, orders o, customer c
	        WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey
	        AND c.c_name LIKE '%00000%'`
	s := mustParse(t, src).(*Select)
	fe, ok := s.Items[0].Expr.(*FuncExpr)
	if !ok || fe.Name != "COUNT" || !fe.Star {
		t.Fatalf("item = %+v", s.Items[0].Expr)
	}
}

func TestParsePaperQ4(t *testing.T) {
	src := `SELECT o_orderkey, AVG(l_quantity) AS avgQ FROM lineitem l, orders o
	        WHERE l.l_orderkey = o.o_orderkey AND l_suppkey BETWEEN 1 AND 250
	        GROUP BY o_orderkey`
	s := mustParse(t, src).(*Select)
	if len(s.GroupBy) != 1 {
		t.Fatalf("group by = %d", len(s.GroupBy))
	}
	if s.Items[1].Alias != "avgq" {
		t.Errorf("alias = %q", s.Items[1].Alias)
	}
}

func TestParseExplicitJoin(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t JOIN u ON t.id = u.id JOIN v ON u.x = v.x").(*Select)
	if len(s.Joins) != 2 {
		t.Fatalf("joins = %d", len(s.Joins))
	}
	s = mustParse(t, "SELECT a FROM t INNER JOIN u ON t.id = u.id").(*Select)
	if len(s.Joins) != 1 {
		t.Fatalf("inner joins = %d", len(s.Joins))
	}
}

func TestParseOrderLimit(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t ORDER BY a DESC, b ASC LIMIT 10").(*Select)
	if len(s.OrderBy) != 2 || !s.OrderBy[0].Desc || s.OrderBy[1].Desc {
		t.Fatalf("order by: %+v", s.OrderBy)
	}
	if s.Limit != 10 {
		t.Errorf("limit = %d", s.Limit)
	}
}

func TestParseInsertValues(t *testing.T) {
	s := mustParse(t, "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").(*Insert)
	if s.Table != "t" || len(s.Columns) != 2 || len(s.Rows) != 2 {
		t.Fatalf("insert: %+v", s)
	}
	if s.Rows[1][1].(*Literal).Value.Str() != "y" {
		t.Error("row value wrong")
	}
}

func TestParseInsertSelect(t *testing.T) {
	s := mustParse(t, "INSERT INTO t SELECT a, b FROM u WHERE a < 3").(*Insert)
	if s.Query == nil || len(s.Query.Items) != 2 {
		t.Fatalf("insert-select: %+v", s)
	}
}

func TestParseUpdate(t *testing.T) {
	s := mustParse(t, "UPDATE orders SET o_comment = 'new', o_totalprice = o_totalprice * 2 WHERE o_orderkey = 7").(*Update)
	if s.Table != "orders" || len(s.Set) != 2 || s.Where == nil {
		t.Fatalf("update: %+v", s)
	}
}

func TestParseDelete(t *testing.T) {
	s := mustParse(t, "DELETE FROM t WHERE a IS NOT NULL").(*Delete)
	if s.Table != "t" {
		t.Fatal("table wrong")
	}
	isn, ok := s.Where.(*IsNullExpr)
	if !ok || !isn.Negated {
		t.Fatalf("where = %v", s.Where)
	}
}

func TestParseCreateTable(t *testing.T) {
	s := mustParse(t, "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(25), price DECIMAL(15,2), d DATE, ok BOOLEAN)").(*CreateTable)
	if len(s.Columns) != 5 {
		t.Fatalf("cols = %d", len(s.Columns))
	}
	want := []sqlval.Kind{sqlval.KindInt, sqlval.KindString, sqlval.KindFloat, sqlval.KindDate, sqlval.KindBool}
	for i, k := range want {
		if s.Columns[i].Type != k {
			t.Errorf("col %d kind = %v, want %v", i, s.Columns[i].Type, k)
		}
	}
	if !s.Columns[0].PrimaryKey || s.Columns[1].PrimaryKey {
		t.Error("primary key flags wrong")
	}
}

func TestParseCreateTableIfNotExists(t *testing.T) {
	s := mustParse(t, "CREATE TABLE IF NOT EXISTS t (a INT)").(*CreateTable)
	if !s.IfNotExists {
		t.Error("IfNotExists not set")
	}
}

func TestParseDropTable(t *testing.T) {
	if s := mustParse(t, "DROP TABLE t").(*DropTable); s.Table != "t" || s.IfExists {
		t.Fatal("drop wrong")
	}
	if s := mustParse(t, "DROP TABLE IF EXISTS t").(*DropTable); !s.IfExists {
		t.Fatal("if exists wrong")
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT 1 + 2 * 3").(*Select)
	be := s.Items[0].Expr.(*BinaryExpr)
	if be.Op != "+" {
		t.Fatalf("top op = %q", be.Op)
	}
	if be.Right.(*BinaryExpr).Op != "*" {
		t.Error("* must bind tighter than +")
	}
	s = mustParse(t, "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3").(*Select)
	top := s.Where.(*BinaryExpr)
	if top.Op != "OR" {
		t.Fatalf("top = %q, AND must bind tighter than OR", top.Op)
	}
}

func TestParseInList(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN ('x')").(*Select)
	and := s.Where.(*BinaryExpr)
	in1 := and.Left.(*InExpr)
	if len(in1.List) != 3 || in1.Negated {
		t.Fatalf("in1: %+v", in1)
	}
	in2 := and.Right.(*InExpr)
	if !in2.Negated {
		t.Fatal("NOT IN not negated")
	}
}

func TestParseNotLike(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a NOT LIKE '%x%'").(*Select)
	u, ok := s.Where.(*UnaryExpr)
	if !ok || u.Op != "NOT" {
		t.Fatalf("where = %v", s.Where)
	}
}

func TestParseNotBetween(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2").(*Select)
	b := s.Where.(*BetweenExpr)
	if !b.Negated {
		t.Fatal("NOT BETWEEN not negated")
	}
}

func TestParseDateLiteral(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE d >= DATE '1998-12-01'").(*Select)
	be := s.Where.(*BinaryExpr)
	lit := be.Right.(*Literal)
	if lit.Value.Kind() != sqlval.KindDate || lit.Value.String() != "1998-12-01" {
		t.Fatalf("date literal = %v", lit.Value)
	}
}

func TestParseStringEscapes(t *testing.T) {
	s := mustParse(t, "SELECT 'o''brien'").(*Select)
	if s.Items[0].Expr.(*Literal).Value.Str() != "o'brien" {
		t.Error("escaped quote wrong")
	}
}

func TestParseComments(t *testing.T) {
	s := mustParse(t, "SELECT a -- trailing comment\nFROM t").(*Select)
	if len(s.From) != 1 {
		t.Fatal("comment broke parsing")
	}
}

func TestParseScript(t *testing.T) {
	stmts, nparams, err := ParseScript("CREATE TABLE t (a INT); INSERT INTO t VALUES (?); SELECT * FROM t WHERE a = ?;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 || nparams != 2 {
		t.Fatalf("stmts = %d, nparams = %d", len(stmts), nparams)
	}
	// Placeholders are numbered across the script, not per statement.
	if p, ok := stmts[2].(*Select).Where.(*BinaryExpr).Right.(*Param); !ok || p.Index != 2 {
		t.Fatalf("second statement's placeholder = %#v", stmts[2].(*Select).Where)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEC a FROM t",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"INSERT INTO",
		"INSERT INTO t VALUES",
		"INSERT INTO t VALUES (1",
		"UPDATE t",
		"UPDATE t SET",
		"DELETE t",
		"CREATE TABLE t",
		"CREATE TABLE t (a BLOB)",
		"DROP t",
		"SELECT a FROM t LIMIT x",
		"SELECT 'unterminated",
		"SELECT 1.2.3",
		"SELECT a FROM t WHERE a NOT 5",
		"SELECT a FROM t; garbage",
		"SELECT a ? b",
		"SELECT SUM(*) FROM t",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	// A statement's String() rendering must re-parse to an identical rendering
	// (fixed-point property used by the audit log).
	sources := []string{
		"SELECT PROVENANCE a, b AS x FROM t u, v WHERE (a = 1 AND b LIKE '%z%') GROUP BY a ORDER BY b DESC LIMIT 5",
		"INSERT INTO t (a) VALUES (1), (2)",
		"UPDATE t SET a = (a + 1) WHERE a BETWEEN 1 AND 3",
		"DELETE FROM t WHERE a IN (1, 2)",
		"CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)",
		"DROP TABLE IF EXISTS t",
		"SELECT count(*), SUM(a), AVG(b), MIN(c), MAX(d) FROM t",
		"SELECT a FROM t JOIN u ON (t.id = u.id)",
		"SELECT DISTINCT a FROM t",
		"SELECT COUNT(DISTINCT a) FROM t",
		// FLOAT literals the 'g' rendering writes with an exponent, and
		// those renderings themselves.
		"SELECT 1000000.0",
		"SELECT 1e+06",
		"SELECT 0.00001",
		"SELECT 1e-05",
		"SELECT a FROM t WHERE b > 1.5E3 AND c < 2e-7",
	}
	for _, src := range sources {
		s1 := mustParse(t, src)
		s2 := mustParse(t, s1.String())
		if s1.String() != s2.String() {
			t.Errorf("not a fixed point:\n first: %s\nsecond: %s", s1, s2)
		}
	}
}

// TestParseFloatExponent pins what the lexer reads as an exponent: e or E,
// an optional sign, at least one digit — and nothing else, so a bare e after
// a number is still an alias.
func TestParseFloatExponent(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want sqlval.Value
	}{
		{"SELECT 1000000.0", sqlval.NewFloat(1e6)},
		{"SELECT 1e+06", sqlval.NewFloat(1e6)},
		{"SELECT 0.00001", sqlval.NewFloat(1e-5)},
		{"SELECT 1e-05", sqlval.NewFloat(1e-5)},
		{"SELECT 25E2", sqlval.NewFloat(2500)},
		{"SELECT 1.5e3", sqlval.NewFloat(1500)},
		{"SELECT 1e", sqlval.NewInt(1)},     // 1 AS e
		{"SELECT 1e+", sqlval.Null},         // 1 AS e, then a dangling +
		{"SELECT 1e999", sqlval.Null},       // out of range
		{"SELECT 1.e5", sqlval.Null},        // a digit must follow the point
		{"SELECT 7 LIMIT 1e1", sqlval.Null}, // counts stay integers
	} {
		stmt, err := Parse(tc.src)
		if tc.want.IsNull() {
			if err == nil {
				t.Errorf("Parse(%q) unexpectedly succeeded", tc.src)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.src, err)
			continue
		}
		lit, ok := stmt.(*Select).Items[0].Expr.(*Literal)
		if !ok || lit.Value.Kind() != tc.want.Kind() || !lit.Value.Equal(tc.want) {
			t.Errorf("Parse(%q) = %v, want %s %v", tc.src, stmt, tc.want.Kind(), tc.want)
		}
		if _, err := Parse(stmt.String()); err != nil {
			t.Errorf("Parse(%q) accepted, its rendering %q rejected: %v", tc.src, stmt, err)
		}
	}
}

func TestTokenizeErrors(t *testing.T) {
	if _, err := Tokenize("SELECT #"); err == nil {
		t.Error("expected lexer error for #")
	}
}

func TestParseHaving(t *testing.T) {
	s := mustParse(t, "SELECT k, SUM(v) FROM t GROUP BY k HAVING count(*) > 1").(*Select)
	if s.Having == nil {
		t.Fatal("HAVING not parsed")
	}
	if _, err := Parse("SELECT k FROM t HAVING count(*) > 1"); err == nil {
		t.Fatal("HAVING without GROUP BY must fail")
	}
	// Round trip.
	s2 := mustParse(t, s.String()).(*Select)
	if s2.String() != s.String() {
		t.Fatalf("having round trip: %s vs %s", s2, s)
	}
}

func TestParseAsOf(t *testing.T) {
	// Trailing position.
	s := mustParse(t, "SELECT a FROM t WHERE a > 1 LIMIT 3 AS OF 42").(*Select)
	if s.AsOf == nil {
		t.Fatal("AS OF not parsed (trailing)")
	}
	if got := s.String(); got != "SELECT a FROM t WHERE (a > 1) LIMIT 3 AS OF 42" {
		t.Fatalf("rendering = %q", got)
	}
	// After the FROM clause; normalizes to trailing.
	s = mustParse(t, "SELECT a FROM t AS OF 7 WHERE a > 1").(*Select)
	if s.AsOf == nil {
		t.Fatal("AS OF not parsed (after FROM)")
	}
	if got := s.String(); got != "SELECT a FROM t WHERE (a > 1) AS OF 7" {
		t.Fatalf("normalized rendering = %q", got)
	}
	// Parameterized bound.
	s = mustParse(t, "SELECT a FROM t AS OF ?").(*Select)
	if _, ok := s.AsOf.(*Param); !ok {
		t.Fatalf("AS OF ? = %T", s.AsOf)
	}
	// Alias named like the keyword still works: AS OF binds to the SELECT.
	s = mustParse(t, "SELECT a FROM t x AS OF 5").(*Select)
	if s.From[0].Alias != "x" || s.AsOf == nil {
		t.Fatalf("alias/AS OF split wrong: %+v asof=%v", s.From[0], s.AsOf)
	}
	// Duplicate clause rejected.
	if _, err := Parse("SELECT a FROM t AS OF 1 AS OF 2"); err == nil {
		t.Fatal("duplicate AS OF must fail")
	}
}

func TestParseVacuum(t *testing.T) {
	v := mustParse(t, "VACUUM").(*Vacuum)
	if v.Retain != nil {
		t.Fatalf("bare VACUUM has retain %v", v.Retain)
	}
	if v.String() != "VACUUM" {
		t.Fatalf("rendering = %q", v.String())
	}
	v = mustParse(t, "VACUUM RETAIN 100").(*Vacuum)
	if v.Retain == nil {
		t.Fatal("RETAIN bound not parsed")
	}
	if v.String() != "VACUUM RETAIN 100" {
		t.Fatalf("rendering = %q", v.String())
	}
}

func TestParseReenact(t *testing.T) {
	r := mustParse(t, "REENACT TRANSACTION 3").(*Reenact)
	if r.Txn == nil || len(r.Subs) != 0 {
		t.Fatalf("structure: %+v", r)
	}
	if r.String() != "REENACT TRANSACTION 3" {
		t.Fatalf("rendering = %q", r.String())
	}
	r = mustParse(t, "REENACT TRANSACTION 9 SUBSTITUTE 1 WITH 'UPDATE t SET a = 1', 2 WITH 'SELECT ''x'''").(*Reenact)
	if len(r.Subs) != 2 {
		t.Fatalf("subs = %+v", r.Subs)
	}
	if r.Subs[0].Ordinal != 1 || r.Subs[0].SQL != "UPDATE t SET a = 1" {
		t.Fatalf("sub[0] = %+v", r.Subs[0])
	}
	if r.Subs[1].SQL != "SELECT 'x'" {
		t.Fatalf("sub[1] = %+v", r.Subs[1])
	}
	// Round trip with embedded quotes.
	r2 := mustParse(t, r.String()).(*Reenact)
	if r2.String() != r.String() {
		t.Fatalf("round trip: %q vs %q", r2.String(), r.String())
	}
	// Bad ordinal rejected.
	if _, err := Parse("REENACT TRANSACTION 1 SUBSTITUTE 0 WITH 'SELECT 1'"); err == nil {
		t.Fatal("ordinal 0 must fail")
	}
}
