package sqlparse

import (
	"strings"

	"ldv/internal/sqlval"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmtNode()
	// String renders the statement back to SQL (normalized form).
	String() string
}

// Expr is any scalar expression.
type Expr interface {
	exprNode()
	String() string
}

// ---- Expressions ----

// Literal is a constant value.
type Literal struct{ Value sqlval.Value }

// ColumnRef references a column, optionally qualified by a table name or
// alias.
type ColumnRef struct {
	Table  string // "" if unqualified
	Column string
}

// BinaryExpr applies a binary operator. Op is one of
// + - * / % = <> < <= > >= AND OR LIKE ||.
type BinaryExpr struct {
	Op          string
	Left, Right Expr
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op   string // "NOT" or "-"
	Expr Expr
}

// BetweenExpr is expr [NOT] BETWEEN lo AND hi.
type BetweenExpr struct {
	Expr    Expr
	Lo, Hi  Expr
	Negated bool
}

// InExpr is expr [NOT] IN (list...) or expr [NOT] IN (SELECT ...).
type InExpr struct {
	Expr    Expr
	List    []Expr  // nil when Sub is set
	Sub     *Select // IN-subquery form
	Negated bool
}

// IsNullExpr is expr IS [NOT] NULL.
type IsNullExpr struct {
	Expr    Expr
	Negated bool
}

// FuncExpr is an aggregate or scalar function call. Star marks COUNT(*).
type FuncExpr struct {
	Name     string // upper-cased: COUNT, SUM, AVG, MIN, MAX
	Arg      Expr   // nil when Star
	Star     bool
	Distinct bool
}

// SubqueryExpr is a scalar subquery: (SELECT ...) used as a value. The
// engine evaluates uncorrelated subqueries once per statement.
type SubqueryExpr struct {
	Query *Select
}

// ExistsExpr is EXISTS (SELECT ...).
type ExistsExpr struct {
	Query *Select
}

// Param is a positional `?` placeholder in a prepared statement. Index is
// 1-based in source order; the executor resolves it against the values bound
// for the execution, so one parsed (and plan-cached) tree serves every
// execution.
type Param struct {
	Index int
}

func (*Literal) exprNode()      {}
func (*ColumnRef) exprNode()    {}
func (*BinaryExpr) exprNode()   {}
func (*UnaryExpr) exprNode()    {}
func (*BetweenExpr) exprNode()  {}
func (*InExpr) exprNode()       {}
func (*IsNullExpr) exprNode()   {}
func (*FuncExpr) exprNode()     {}
func (*SubqueryExpr) exprNode() {}
func (*ExistsExpr) exprNode()   {}
func (*Param) exprNode()        {}

// Walk calls f for e and then, unless f returned false, for every operand of
// e, parents first and left to right — the one descent over the expression
// kinds; whoever searches an expression passes a closure. It stays inside
// one scope: the query of a SubqueryExpr, an ExistsExpr or an IN-subquery
// is not entered (Subquery hands it to the callers that want it). A nil e
// is no expression and is skipped.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *Literal, *ColumnRef, *Param:
	case *BinaryExpr:
		Walk(x.Left, f)
		Walk(x.Right, f)
	case *UnaryExpr:
		Walk(x.Expr, f)
	case *BetweenExpr:
		Walk(x.Expr, f)
		Walk(x.Lo, f)
		Walk(x.Hi, f)
	case *InExpr: // skip: Sub
		Walk(x.Expr, f)
		for _, m := range x.List {
			Walk(m, f)
		}
	case *IsNullExpr:
		Walk(x.Expr, f)
	case *FuncExpr:
		Walk(x.Arg, f)
	case *SubqueryExpr: // skip: Query
	case *ExistsExpr: // skip: Query
	}
}

// Subquery returns the query e runs — e is a scalar subquery, an EXISTS or
// an IN-subquery — or nil when e is any other expression.
func Subquery(e Expr) *Select {
	switch x := e.(type) {
	case *SubqueryExpr:
		return x.Query
	case *ExistsExpr:
		return x.Query
	case *InExpr:
		return x.Sub
	}
	return nil
}

// StmtExprs calls f for every expression a SELECT, INSERT ... VALUES, UPDATE
// or DELETE evaluates per row or per statement, in the order the statement
// spells them. The query of an INSERT ... SELECT is a statement of its own,
// and an AS OF bound is resolved before anything runs; neither is listed.
func StmtExprs(stmt Statement, f func(Expr)) {
	each := func(e Expr) {
		if e != nil {
			f(e)
		}
	}
	switch s := stmt.(type) {
	case *Select:
		for _, it := range s.Items {
			each(it.Expr)
		}
		for _, j := range s.Joins {
			each(j.On)
		}
		each(s.Where)
		for _, g := range s.GroupBy {
			each(g)
		}
		each(s.Having)
		for _, o := range s.OrderBy {
			each(o.Expr)
		}
	case *Insert:
		for _, row := range s.Rows {
			for _, e := range row {
				each(e)
			}
		}
	case *Update:
		for _, a := range s.Set {
			each(a.Expr)
		}
		each(s.Where)
	case *Delete:
		each(s.Where)
	}
}

func (e *Literal) String() string { return e.Value.SQLLiteral() }

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Column
	}
	return e.Column
}

func (e *BinaryExpr) String() string {
	return "(" + e.Left.String() + " " + e.Op + " " + e.Right.String() + ")"
}

func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return "(NOT " + e.Expr.String() + ")"
	}
	return "(-" + e.Expr.String() + ")"
}

func (e *BetweenExpr) String() string {
	not := ""
	if e.Negated {
		not = " NOT"
	}
	return "(" + e.Expr.String() + not + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

func (e *InExpr) String() string {
	not := ""
	if e.Negated {
		not = " NOT"
	}
	if e.Sub != nil {
		return "(" + e.Expr.String() + not + " IN (" + e.Sub.String() + "))"
	}
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	return "(" + e.Expr.String() + not + " IN (" + strings.Join(parts, ", ") + "))"
}

func (e *SubqueryExpr) String() string { return "(" + e.Query.String() + ")" }

func (e *ExistsExpr) String() string { return "EXISTS (" + e.Query.String() + ")" }

// String renders a placeholder exactly as written — the normalized text is
// therefore identical for every binding, which keeps fingerprints stable.
func (e *Param) String() string { return "?" }

func (e *IsNullExpr) String() string {
	if e.Negated {
		return "(" + e.Expr.String() + " IS NOT NULL)"
	}
	return "(" + e.Expr.String() + " IS NULL)"
}

func (e *FuncExpr) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return e.Name + "(" + d + e.Arg.String() + ")"
}

// AggregateFuncs lists the supported aggregate function names.
var AggregateFuncs = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

// ---- SELECT ----

// SelectItem is one entry of the select list.
type SelectItem struct {
	Expr  Expr   // nil for *
	Alias string // "" if none
	Star  bool   // SELECT * or tbl.*
	Table string // qualifier for tbl.*
}

// TableRef is one FROM-clause table with an optional alias.
type TableRef struct {
	Name  string
	Alias string // "" if none; effective name is Alias or Name
}

// EffectiveName returns the name by which columns of this table are
// qualified in the query.
func (t TableRef) EffectiveName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is an explicit INNER JOIN ... ON ... appended after the first
// table ref.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a SELECT statement. Provenance marks the Perm-style
// SELECT PROVENANCE variant, which adds lineage columns to the result.
type Select struct {
	Provenance bool
	Distinct   bool
	Items      []SelectItem
	From       []TableRef
	Joins      []JoinClause
	Where      Expr
	GroupBy    []Expr
	Having     Expr
	OrderBy    []OrderItem
	Limit      int // -1 when absent
	// AsOf, when non-nil, pins the query to the historical snapshot at the
	// given logical tick (time travel). Accepted after the FROM clause or
	// trailing the statement; always rendered trailing, so the normalized
	// form (and with it the fingerprint) is position-independent.
	AsOf Expr
}

func (*Select) stmtNode() {}

func (s *Select) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Provenance {
		sb.WriteString("PROVENANCE ")
	}
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case it.Star && it.Table != "":
			sb.WriteString(it.Table + ".*")
		case it.Star:
			sb.WriteString("*")
		default:
			sb.WriteString(it.Expr.String())
			if it.Alias != "" {
				sb.WriteString(" AS " + it.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, t := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(t.Name)
			if t.Alias != "" {
				sb.WriteString(" " + t.Alias)
			}
		}
	}
	for _, j := range s.Joins {
		sb.WriteString(" JOIN " + j.Table.Name)
		if j.Table.Alias != "" {
			sb.WriteString(" " + j.Table.Alias)
		}
		sb.WriteString(" ON " + j.On.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		sb.WriteString(" LIMIT ")
		sb.WriteString(itoa(s.Limit))
	}
	if s.AsOf != nil {
		sb.WriteString(" AS OF " + s.AsOf.String())
	}
	return sb.String()
}

// ---- DML ----

// Insert is INSERT INTO table [(cols)] VALUES rows | SELECT query.
type Insert struct {
	Table   string
	Columns []string // nil means table order
	Rows    [][]Expr // literal rows; nil when Query is set
	Query   *Select
}

func (*Insert) stmtNode() {}

func (s *Insert) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + s.Table)
	if len(s.Columns) > 0 {
		sb.WriteString(" (" + strings.Join(s.Columns, ", ") + ")")
	}
	if s.Query != nil {
		sb.WriteString(" " + s.Query.String())
		return sb.String()
	}
	sb.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for j, e := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// Assignment is one SET column = expr of an UPDATE.
type Assignment struct {
	Column string
	Expr   Expr
}

// Update is UPDATE table SET assignments [WHERE expr].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

func (*Update) stmtNode() {}

func (s *Update) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE " + s.Table + " SET ")
	for i, a := range s.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Column + " = " + a.Expr.String())
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	return sb.String()
}

// Delete is DELETE FROM table [WHERE expr].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmtNode() {}

func (s *Delete) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// ---- DDL ----

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       sqlval.Kind
	PrimaryKey bool
}

// CreateTable is CREATE TABLE [IF NOT EXISTS] name (cols).
type CreateTable struct {
	Table       string
	Columns     []ColumnDef
	IfNotExists bool
}

func (*CreateTable) stmtNode() {}

func (s *CreateTable) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	if s.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(s.Table + " (")
	for i, c := range s.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name + " " + c.Type.String())
		if c.PrimaryKey {
			sb.WriteString(" PRIMARY KEY")
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// Copy is the bulk-transfer statement COPY table FROM 'path' (load) or
// COPY table TO 'path' (dump). The server performs the file I/O.
type Copy struct {
	Table string
	Path  string
	To    bool // true for COPY ... TO
}

func (*Copy) stmtNode() {}

// String renders the statement.
func (s *Copy) String() string {
	dir := "FROM"
	if s.To {
		dir = "TO"
	}
	return "COPY " + s.Table + " " + dir + " '" + strings.ReplaceAll(s.Path, "'", "''") + "'"
}

// Begin starts a transaction (BEGIN [TRANSACTION]).
type Begin struct{}

// Commit commits the open transaction.
type Commit struct{}

// Rollback aborts the open transaction, undoing its DML.
type Rollback struct{}

func (*Begin) stmtNode()    {}
func (*Commit) stmtNode()   {}
func (*Rollback) stmtNode() {}

// String renders the statement.
func (*Begin) String() string { return "BEGIN" }

// String renders the statement.
func (*Commit) String() string { return "COMMIT" }

// String renders the statement.
func (*Rollback) String() string { return "ROLLBACK" }

// Explain is EXPLAIN [ANALYZE] <stmt>. Plain EXPLAIN renders the planned
// operator tree without executing; ANALYZE executes the inner statement and
// attaches actual per-operator row counts and timings.
type Explain struct {
	Analyze bool
	Stmt    Statement
}

func (*Explain) stmtNode() {}

// String renders the statement.
func (s *Explain) String() string {
	if s.Analyze {
		return "EXPLAIN ANALYZE " + s.Stmt.String()
	}
	return "EXPLAIN " + s.Stmt.String()
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Table    string
	IfExists bool
}

func (*DropTable) stmtNode() {}

func (s *DropTable) String() string {
	if s.IfExists {
		return "DROP TABLE IF EXISTS " + s.Table
	}
	return "DROP TABLE " + s.Table
}

// CreateIndex is CREATE INDEX [IF NOT EXISTS] name ON table (cols)
// [USING HASH|ORDERED].
type CreateIndex struct {
	Name        string
	Table       string
	Columns     []string
	Kind        string // "hash" or "ordered"
	IfNotExists bool
}

func (*CreateIndex) stmtNode() {}

func (s *CreateIndex) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE INDEX ")
	if s.IfNotExists {
		sb.WriteString("IF NOT EXISTS ")
	}
	sb.WriteString(s.Name)
	sb.WriteString(" ON ")
	sb.WriteString(s.Table)
	sb.WriteString(" (")
	sb.WriteString(strings.Join(s.Columns, ", "))
	sb.WriteString(")")
	if s.Kind != "" {
		sb.WriteString(" USING ")
		sb.WriteString(strings.ToUpper(s.Kind))
	}
	return sb.String()
}

// DropIndex is DROP INDEX [IF EXISTS] name.
type DropIndex struct {
	Name     string
	IfExists bool
}

func (*DropIndex) stmtNode() {}

func (s *DropIndex) String() string {
	if s.IfExists {
		return "DROP INDEX IF EXISTS " + s.Name
	}
	return "DROP INDEX " + s.Name
}

// Vacuum is VACUUM [RETAIN n]: remove dead tuple versions older than the
// retention horizon. With RETAIN the horizon is "now minus n ticks" for this
// pass only; without it the database's configured retention applies (or, if
// none is configured, every committed dead version is reclaimable).
type Vacuum struct {
	Retain Expr // nil when absent
}

func (*Vacuum) stmtNode() {}

// String renders the statement.
func (s *Vacuum) String() string {
	if s.Retain != nil {
		return "VACUUM RETAIN " + s.Retain.String()
	}
	return "VACUUM"
}

// ReenactSub is one statement substitution of a what-if reenactment: the
// 1-based ordinal of the original statement to replace and the replacement
// SQL text.
type ReenactSub struct {
	Ordinal int
	SQL     string
}

// Reenact is REENACT TRANSACTION <txid> [SUBSTITUTE n WITH 'sql' [, ...]]:
// replay a committed transaction's recorded statements against its
// historical snapshot (GProM-style reenactment), optionally substituting
// statements for what-if analysis.
type Reenact struct {
	Txn  Expr
	Subs []ReenactSub
}

func (*Reenact) stmtNode() {}

// String renders the statement.
func (s *Reenact) String() string {
	var sb strings.Builder
	sb.WriteString("REENACT TRANSACTION " + s.Txn.String())
	for i, sub := range s.Subs {
		if i == 0 {
			sb.WriteString(" SUBSTITUTE ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString(itoa(sub.Ordinal))
		sb.WriteString(" WITH '" + strings.ReplaceAll(sub.SQL, "'", "''") + "'")
	}
	return sb.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
