package engine

import (
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Conjunct kernels. Each conjunct of the filter fused onto a plan leaf is
// compiled once per execution to a kernel: one call per row that answers
// whether the row passes. Three shapes over a schema column (not a prov_*
// attribute) and a non-NULL literal or bound `?` get a typed fast path —
//
//	col op c, c op col   for = <> < <= > >=
//	col BETWEEN c1 AND c2   (not negated)
//	col LIKE c
//
// — which reads the stored value's kind and payload directly. The fast path
// runs only when the stored value's kind equals the constant's (INTEGER,
// FLOAT, DATE or TEXT; LIKE: TEXT). Every other row — a NULL, a value of
// another kind — and every other conjunct shape runs the conjunct's bound
// closure, so a kernel's verdict and error are the closure's by construction.
// The one conversion: an INTEGER constant against a FLOAT column becomes the
// FLOAT Compare would convert it to anyway.

// kernel reports whether the row vals passes one conjunct.
type kernel func(vals []sqlval.Value) (bool, error)

// cmpTerm is one comparison of a column with a constant: the row passes
// when want holds Compare(col, c)'s outcome.
type cmpTerm struct {
	c    sqlval.Value
	want cmpOp
}

// kernel binds conjunct ex against the layout and compiles it.
func (l *storedLayout) kernel(ex sqlparse.Expr) (kernel, error) {
	b, err := l.bind(ex)
	if err != nil {
		return nil, err
	}
	slow := func(vals []sqlval.Value) (bool, error) {
		v, err := b(vals, nil)
		return isTrue(v), err
	}
	switch e := ex.(type) {
	case *sqlparse.BinaryExpr:
		if e.Op == "LIKE" {
			col, isCol := l.column(e.Left)
			if c, ok := l.constant(e.Right, -1); isCol && ok && c.Kind() == sqlval.KindString {
				return likeKernel(col, sqlval.CompileLike(c.Str()), slow), nil
			}
			return slow, nil
		}
		want, isCmp := cmpOps[e.Op]
		if !isCmp {
			return slow, nil
		}
		if col, ok := l.column(e.Left); ok {
			if c, ok := l.constant(e.Right, col); ok {
				return cmpKernel(col, slow, cmpTerm{c, want}), nil
			}
		}
		if col, ok := l.column(e.Right); ok {
			if c, ok := l.constant(e.Left, col); ok {
				// c op col: Compare(c, x) is -Compare(x, c) within a kind.
				return cmpKernel(col, slow, cmpTerm{c, cmpOp{want[2], want[1], want[0]}}), nil
			}
		}
	case *sqlparse.BetweenExpr:
		col, isCol := l.column(e.Expr)
		lo, okLo := l.constant(e.Lo, col)
		hi, okHi := l.constant(e.Hi, col)
		if !e.Negated && isCol && okLo && okHi {
			return cmpKernel(col, slow, cmpTerm{lo, cmpOps[">="]}, cmpTerm{hi, cmpOps["<="]}), nil
		}
	}
	return slow, nil
}

// column resolves ex to a schema column of the layout.
func (l *storedLayout) column(ex sqlparse.Expr) (int, bool) {
	cr, ok := ex.(*sqlparse.ColumnRef)
	if !ok {
		return -1, false
	}
	i, err := l.env.resolve(cr)
	return i, err == nil && i < l.ncols
}

// constant returns the non-NULL value of a literal or a bound `?`. An
// INTEGER compared with column col (-1: none) of type FLOAT is returned as
// the FLOAT Compare compares it as.
func (l *storedLayout) constant(ex sqlparse.Expr, col int) (sqlval.Value, bool) {
	var v sqlval.Value
	switch ex.(type) {
	case *sqlparse.Literal, *sqlparse.Param:
		v = probeValue(ex, l.env.vals)
	}
	if col >= 0 && l.types[col] == sqlval.KindFloat && v.Kind() == sqlval.KindInt {
		v = sqlval.NewFloat(float64(v.Int()))
	}
	return v, !v.IsNull()
}

// cmpKernel compiles the conjunction of terms, whose constants must share
// a kind, over column col.
func cmpKernel(col int, slow kernel, terms ...cmpTerm) kernel {
	kind := terms[0].c.Kind()
	for _, t := range terms {
		if t.c.Kind() != kind {
			return slow
		}
	}
	switch kind {
	case sqlval.KindInt:
		return termKernel(col, kind, slow, terms, sqlval.Value.Int)
	case sqlval.KindDate:
		return termKernel(col, kind, slow, terms, sqlval.Value.Days)
	case sqlval.KindFloat:
		return termKernel(col, kind, slow, terms, func(v sqlval.Value) float64 { f, _ := v.AsFloat(); return f })
	case sqlval.KindString:
		return termKernel(col, kind, slow, terms, sqlval.Value.Str)
	}
	return slow
}

// termKernel is cmpKernel for one kind, whose payload get reads.
func termKernel[T int64 | float64 | string](col int, kind sqlval.Kind, slow kernel, terms []cmpTerm, get func(sqlval.Value) T) kernel {
	c0, want0 := get(terms[0].c), terms[0].want
	if len(terms) == 1 {
		return func(vals []sqlval.Value) (bool, error) {
			v := vals[col]
			if v.Kind() != kind {
				return slow(vals)
			}
			return want0[order(get(v), c0)+1], nil
		}
	}
	c1, want1 := get(terms[1].c), terms[1].want
	return func(vals []sqlval.Value) (bool, error) {
		v := vals[col]
		if v.Kind() != kind {
			return slow(vals)
		}
		x := get(v)
		return want0[order(x, c0)+1] && want1[order(x, c1)+1], nil
	}
}

// order is Compare within one kind: -1, 0 or +1, and 0 for a NaN against
// anything, as sqlval's cmpOrdered says.
func order[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func likeKernel(col int, p sqlval.LikePattern, slow kernel) kernel {
	return func(vals []sqlval.Value) (bool, error) {
		v := vals[col]
		if v.Kind() != sqlval.KindString {
			return slow(vals)
		}
		return p.Match(v.Str()), nil
	}
}
