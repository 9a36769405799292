package engine

import (
	"fmt"

	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Uncorrelated subqueries are evaluated once per statement and substituted
// as literals before planning; their Lineage joins the enclosing
// statement's provenance (every output row of the outer statement depends
// on the tuples the subquery consumed). Correlated subqueries surface as
// "column does not exist" errors from the inner execution, reported with a
// clarifying wrapper.

// subqueryState accumulates the provenance of resolved subqueries. They run
// in the outer statement's context: same snapshot, same locked footprint,
// same lineage sink.
type subqueryState struct {
	ec *stmtCtx
	// ids is the union of what the subqueries' rows depended on, in
	// first-occurrence order (empty when the statement captures no lineage).
	ids   []vid
	depth int
}

const maxSubqueryDepth = 16

// runSubquery executes one subquery and folds its provenance in.
func (st *subqueryState) runSubquery(sel *sqlparse.Select) (cols []string, rows [][]sqlval.Value, err error) {
	if st.depth >= maxSubqueryDepth {
		return nil, nil, fmt.Errorf("subquery nesting exceeds %d levels", maxSubqueryDepth)
	}
	st.depth++
	defer func() { st.depth-- }()
	inner, _, err := st.ec.resolveSelectSubqueries(sel, st)
	if err != nil {
		return nil, nil, err
	}
	cols, rows, lineage, err := st.ec.selectRows(inner)
	if err != nil {
		return nil, nil, fmt.Errorf("subquery (%s): %w", sel.String(), err)
	}
	if st.ec.lin != nil {
		st.ids = st.ec.lin.union(st.ids, lineage...)
	}
	return cols, rows, nil
}

// scalar evaluates a scalar subquery: one column, at most one row (zero
// rows yield NULL, as in standard SQL).
func (st *subqueryState) scalar(sel *sqlparse.Select) (sqlval.Value, error) {
	cols, rows, err := st.runSubquery(sel)
	if err != nil {
		return sqlval.Null, err
	}
	if len(cols) != 1 {
		return sqlval.Null, fmt.Errorf("scalar subquery must return one column, got %d", len(cols))
	}
	switch len(rows) {
	case 0:
		return sqlval.Null, nil
	case 1:
		return rows[0][0], nil
	default:
		return sqlval.Null, fmt.Errorf("scalar subquery returned %d rows", len(rows))
	}
}

// list evaluates an IN-subquery: one column, any number of rows.
func (st *subqueryState) list(sel *sqlparse.Select) ([]sqlparse.Expr, error) {
	cols, rows, err := st.runSubquery(sel)
	if err != nil {
		return nil, err
	}
	if len(cols) != 1 {
		return nil, fmt.Errorf("IN subquery must return one column, got %d", len(cols))
	}
	out := make([]sqlparse.Expr, len(rows))
	for i, row := range rows {
		out[i] = &sqlparse.Literal{Value: row[0]}
	}
	return out, nil
}

// rewriteExpr returns e with every subquery replaced by literals. The
// original tree is never mutated; unchanged subtrees are shared.
func (st *subqueryState) rewriteExpr(e sqlparse.Expr) (sqlparse.Expr, bool, error) {
	switch x := e.(type) {
	case nil:
		return nil, false, nil
	case *sqlparse.SubqueryExpr:
		v, err := st.scalar(x.Query)
		if err != nil {
			return nil, false, err
		}
		return &sqlparse.Literal{Value: v}, true, nil
	case *sqlparse.ExistsExpr:
		_, rows, err := st.runSubquery(x.Query)
		if err != nil {
			return nil, false, err
		}
		return &sqlparse.Literal{Value: sqlval.NewBool(len(rows) > 0)}, true, nil
	case *sqlparse.InExpr:
		if x.Sub != nil {
			list, err := st.list(x.Sub)
			if err != nil {
				return nil, false, err
			}
			inner, _, err := st.rewriteExpr(x.Expr)
			if err != nil {
				return nil, false, err
			}
			return &sqlparse.InExpr{Expr: inner, List: list, Negated: x.Negated}, true, nil
		}
		inner, ch1, err := st.rewriteExpr(x.Expr)
		if err != nil {
			return nil, false, err
		}
		list, ch2, err := st.rewriteExprs(x.List)
		if err != nil {
			return nil, false, err
		}
		if !ch1 && !ch2 {
			return e, false, nil
		}
		return &sqlparse.InExpr{Expr: inner, List: list, Negated: x.Negated}, true, nil
	case *sqlparse.BinaryExpr:
		l, ch1, err := st.rewriteExpr(x.Left)
		if err != nil {
			return nil, false, err
		}
		r, ch2, err := st.rewriteExpr(x.Right)
		if err != nil {
			return nil, false, err
		}
		if !ch1 && !ch2 {
			return e, false, nil
		}
		return &sqlparse.BinaryExpr{Op: x.Op, Left: l, Right: r}, true, nil
	case *sqlparse.UnaryExpr:
		inner, ch, err := st.rewriteExpr(x.Expr)
		if err != nil {
			return nil, false, err
		}
		if !ch {
			return e, false, nil
		}
		return &sqlparse.UnaryExpr{Op: x.Op, Expr: inner}, true, nil
	case *sqlparse.BetweenExpr:
		in, ch1, err := st.rewriteExpr(x.Expr)
		if err != nil {
			return nil, false, err
		}
		lo, ch2, err := st.rewriteExpr(x.Lo)
		if err != nil {
			return nil, false, err
		}
		hi, ch3, err := st.rewriteExpr(x.Hi)
		if err != nil {
			return nil, false, err
		}
		if !ch1 && !ch2 && !ch3 {
			return e, false, nil
		}
		return &sqlparse.BetweenExpr{Expr: in, Lo: lo, Hi: hi, Negated: x.Negated}, true, nil
	case *sqlparse.IsNullExpr:
		inner, ch, err := st.rewriteExpr(x.Expr)
		if err != nil {
			return nil, false, err
		}
		if !ch {
			return e, false, nil
		}
		return &sqlparse.IsNullExpr{Expr: inner, Negated: x.Negated}, true, nil
	case *sqlparse.FuncExpr:
		if x.Arg == nil {
			return e, false, nil
		}
		arg, ch, err := st.rewriteExpr(x.Arg)
		if err != nil {
			return nil, false, err
		}
		if !ch {
			return e, false, nil
		}
		return &sqlparse.FuncExpr{Name: x.Name, Arg: arg, Star: x.Star, Distinct: x.Distinct}, true, nil
	default:
		return e, false, nil
	}
}

func (st *subqueryState) rewriteExprs(es []sqlparse.Expr) ([]sqlparse.Expr, bool, error) {
	changed := false
	out := es
	for i, e := range es {
		ne, ch, err := st.rewriteExpr(e)
		if err != nil {
			return nil, false, err
		}
		if ch && !changed {
			out = append([]sqlparse.Expr(nil), es...)
			changed = true
		}
		if changed {
			out[i] = ne
		}
	}
	return out, changed, nil
}

// resolveSelectSubqueries returns sel with all subqueries substituted; the
// bool reports whether anything changed.
func (ec *stmtCtx) resolveSelectSubqueries(sel *sqlparse.Select, st *subqueryState) (*sqlparse.Select, bool, error) {
	changed := false
	out := *sel

	items := sel.Items
	for i, it := range sel.Items {
		if it.Expr == nil {
			continue
		}
		ne, ch, err := st.rewriteExpr(it.Expr)
		if err != nil {
			return nil, false, err
		}
		if ch && !changed {
			items = append([]sqlparse.SelectItem(nil), sel.Items...)
		}
		if ch {
			changed = true
		}
		if changed {
			items[i] = sqlparse.SelectItem{Expr: ne, Alias: it.Alias, Star: it.Star, Table: it.Table}
		}
	}
	out.Items = items

	where, ch, err := st.rewriteExpr(sel.Where)
	if err != nil {
		return nil, false, err
	}
	changed = changed || ch
	out.Where = where

	having, ch, err := st.rewriteExpr(sel.Having)
	if err != nil {
		return nil, false, err
	}
	changed = changed || ch
	out.Having = having

	joins := sel.Joins
	joinsCopied := false
	for i, j := range sel.Joins {
		on, ch, err := st.rewriteExpr(j.On)
		if err != nil {
			return nil, false, err
		}
		if ch {
			if !joinsCopied {
				joins = append([]sqlparse.JoinClause(nil), sel.Joins...)
				joinsCopied = true
			}
			joins[i] = sqlparse.JoinClause{Table: j.Table, On: on}
			changed = true
		}
	}
	out.Joins = joins

	if !changed {
		return sel, false, nil
	}
	return &out, true, nil
}

// hasSubqueries cheaply detects whether rewriting is needed at all.
func hasSubqueries(e sqlparse.Expr) bool {
	found := false
	var walk func(sqlparse.Expr)
	walk = func(x sqlparse.Expr) {
		if found || x == nil {
			return
		}
		switch v := x.(type) {
		case *sqlparse.SubqueryExpr, *sqlparse.ExistsExpr:
			found = true
		case *sqlparse.InExpr:
			if v.Sub != nil {
				found = true
				return
			}
			walk(v.Expr)
			for _, i := range v.List {
				walk(i)
			}
		case *sqlparse.BinaryExpr:
			walk(v.Left)
			walk(v.Right)
		case *sqlparse.UnaryExpr:
			walk(v.Expr)
		case *sqlparse.BetweenExpr:
			walk(v.Expr)
			walk(v.Lo)
			walk(v.Hi)
		case *sqlparse.IsNullExpr:
			walk(v.Expr)
		case *sqlparse.FuncExpr:
			walk(v.Arg)
		}
	}
	walk(e)
	return found
}

func selectHasSubqueries(sel *sqlparse.Select) bool {
	for _, it := range sel.Items {
		if it.Expr != nil && hasSubqueries(it.Expr) {
			return true
		}
	}
	if hasSubqueries(sel.Where) || hasSubqueries(sel.Having) {
		return true
	}
	for _, j := range sel.Joins {
		if hasSubqueries(j.On) {
			return true
		}
	}
	return false
}

// resolveDMLSubqueries substitutes subqueries in an UPDATE's WHERE and SET
// expressions, returning what they read (empty without a lineage sink).
func (ec *stmtCtx) resolveDMLSubqueries(sp **sqlparse.Update) (reads []vid, err error) {
	s := *sp
	need := hasSubqueries(s.Where)
	for _, a := range s.Set {
		need = need || hasSubqueries(a.Expr)
	}
	if !need {
		return nil, nil
	}
	st := &subqueryState{ec: ec}
	out := *s
	where, _, err := st.rewriteExpr(s.Where)
	if err != nil {
		return nil, err
	}
	out.Where = where
	set := append([]sqlparse.Assignment(nil), s.Set...)
	for i, a := range set {
		ne, _, err := st.rewriteExpr(a.Expr)
		if err != nil {
			return nil, err
		}
		set[i] = sqlparse.Assignment{Column: a.Column, Expr: ne}
	}
	out.Set = set
	*sp = &out
	return st.ids, nil
}

// resolveDeleteSubqueries substitutes subqueries in a DELETE's WHERE,
// returning what they read.
func (ec *stmtCtx) resolveDeleteSubqueries(sp **sqlparse.Delete) (reads []vid, err error) {
	s := *sp
	if !hasSubqueries(s.Where) {
		return nil, nil
	}
	st := &subqueryState{ec: ec}
	out := *s
	where, _, err := st.rewriteExpr(s.Where)
	if err != nil {
		return nil, err
	}
	out.Where = where
	*sp = &out
	return st.ids, nil
}
