package engine

import (
	"fmt"

	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// binding names one slot of an executor tuple: the effective table name
// (alias if given) and the column name. Hidden provenance attributes are
// bound like ordinary columns.
type binding struct {
	table string
	name  string
}

// env resolves column references against the current tuple layout. vals is
// the execution's value table; every derived env points at the same one, so
// `?` placeholders and subqueries resolve at any depth of the operator tree.
type env struct {
	bindings []binding
	vals     *execVals
}

// execVals is the per-execution value table: what an expression reads that
// is neither spelled in it nor a column of the current tuple. params are the
// values bound to the `?` placeholders; subs are the results of the
// statement's init-plans (plan.Tree.Init), filed under the AST node that
// reads them by stmtCtx.runInit before any operator binds an expression.
type execVals struct {
	params []sqlval.Value
	subs   map[sqlparse.Expr]subResult
}

// subResult is what an uncorrelated subquery left behind: val for a scalar
// subquery (NULL when it returned no row) and for EXISTS, set for an
// IN-subquery.
type subResult struct {
	val sqlval.Value
	set *inSet
}

// resolve returns the slot index for a column reference. Unqualified names
// must be unambiguous across all bound tables.
func (e *env) resolve(ref *sqlparse.ColumnRef) (int, error) {
	found := -1
	for i, b := range e.bindings {
		if b.name != ref.Column {
			continue
		}
		if ref.Table != "" && b.table != ref.Table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("column reference %q is ambiguous", ref.String())
		}
		found = i
	}
	if found < 0 {
		return -1, fmt.Errorf("column %q does not exist", ref.String())
	}
	return found, nil
}

// tuple is one row flowing through the executor, with its lineage (the
// duplicate-free list of stored tuple versions it depends on, by vid) when
// lineage tracking is on.
type tuple struct {
	vals    []sqlval.Value
	lineage []vid
}

// slab cuts tuple-sized slices out of chunks that double in size (the
// first is exactly one tuple, so a one-row result costs what it always
// did), turning one allocation per materialized tuple into a handful per
// relation. Slices come back with no spare capacity: appending to one
// never reaches its neighbour.
type slab[T any] struct {
	free []T
	rows int // tuples the next chunk holds
}

const slabMaxRows = 1024

func (s *slab[T]) take(n int) []T {
	if len(s.free) < n {
		if s.rows < slabMaxRows {
			s.rows = 2*s.rows + 1
		}
		s.free = make([]T, s.rows*n)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// bound is an expression compiled against one tuple layout by env.bind:
// column references are slot reads, `?` placeholders and subqueries are the
// execution's values, constant IN lists are sets. aggs carries the current group's
// aggregate results where the expression was bound with aggregate slots;
// it is nil everywhere else.
type bound func(vals, aggs []sqlval.Value) (sqlval.Value, error)

// aggSlots assigns each aggregate call of a statement its position in the
// per-group result slice.
type aggSlots map[*sqlparse.FuncExpr]int

// bind compiles ex against the layout once per operator, so that no name
// is resolved, no operator string compared and no parameter looked up per
// row. Every error that does not depend on a row's values surfaces here:
// unknown or ambiguous columns, unbound parameters, aggregates where none
// can be (aggs nil), expression kinds the executor does not run.
func (en *env) bind(ex sqlparse.Expr, aggs aggSlots) (bound, error) {
	switch e := ex.(type) {
	case *sqlparse.Literal:
		return constant(e.Value), nil
	case *sqlparse.Param:
		params := en.vals.params
		if e.Index < 1 || e.Index > len(params) {
			return nil, fmt.Errorf("parameter %d is not bound (%d values supplied)", e.Index, len(params))
		}
		return constant(params[e.Index-1]), nil
	case *sqlparse.SubqueryExpr, *sqlparse.ExistsExpr:
		r, err := en.sub(ex)
		return constant(r.val), err
	case *sqlparse.ColumnRef:
		i, err := en.resolve(e)
		if err != nil {
			return nil, err
		}
		return func(vals, _ []sqlval.Value) (sqlval.Value, error) { return vals[i], nil }, nil
	case *sqlparse.UnaryExpr:
		x, err := en.bind(e.Expr, aggs)
		if err != nil {
			return nil, err
		}
		if e.Op == "-" {
			return one(x, sqlval.Neg), nil
		}
		// NOT with three-valued logic.
		return one(x, func(v sqlval.Value) (sqlval.Value, error) {
			if v.IsNull() {
				return sqlval.Null, nil
			}
			if v.Kind() != sqlval.KindBool {
				return sqlval.Null, fmt.Errorf("NOT requires a boolean operand, got %s", v.Kind())
			}
			return sqlval.NewBool(!v.Bool()), nil
		}), nil
	case *sqlparse.BinaryExpr:
		return en.bindBinary(e, aggs)
	case *sqlparse.BetweenExpr:
		// x BETWEEN lo AND hi is x >= lo AND x <= hi, in three-valued logic too.
		var between sqlparse.Expr = &sqlparse.BinaryExpr{Op: "AND",
			Left:  &sqlparse.BinaryExpr{Op: ">=", Left: e.Expr, Right: e.Lo},
			Right: &sqlparse.BinaryExpr{Op: "<=", Left: e.Expr, Right: e.Hi}}
		if e.Negated {
			between = &sqlparse.UnaryExpr{Op: "NOT", Expr: between}
		}
		return en.bind(between, aggs)
	case *sqlparse.InExpr:
		return en.bindIn(e, aggs)
	case *sqlparse.IsNullExpr:
		x, err := en.bind(e.Expr, aggs)
		if err != nil {
			return nil, err
		}
		negated := e.Negated
		return one(x, func(v sqlval.Value) (sqlval.Value, error) {
			return sqlval.NewBool(v.IsNull() != negated), nil
		}), nil
	case *sqlparse.FuncExpr:
		if aggs == nil {
			return nil, fmt.Errorf("aggregate %s is not allowed here", e.Name)
		}
		slot, ok := aggs[e]
		if !ok {
			return nil, fmt.Errorf("internal: aggregate %s not precomputed", e.Name)
		}
		return func(_, ag []sqlval.Value) (sqlval.Value, error) { return ag[slot], nil }, nil
	default:
		return nil, fmt.Errorf("unsupported expression %T", ex)
	}
}

// bindAll binds a list of expressions against the same layout.
func (en *env) bindAll(exprs []sqlparse.Expr, aggs aggSlots) ([]bound, error) {
	out := make([]bound, len(exprs))
	for i, ex := range exprs {
		b, err := en.bind(ex, aggs)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

func constant(v sqlval.Value) bound {
	return func(_, _ []sqlval.Value) (sqlval.Value, error) { return v, nil }
}

// one evaluates the operand and applies f to its value.
func one(x bound, f func(sqlval.Value) (sqlval.Value, error)) bound {
	return func(vals, ag []sqlval.Value) (sqlval.Value, error) {
		v, err := x(vals, ag)
		if err != nil {
			return sqlval.Null, err
		}
		return f(v)
	}
}

// sub returns the result of the init-plan behind ex. Only a statement's own
// expressions have one: a subquery in an AS OF bound or a VACUUM RETAIN is
// refused here.
func (en *env) sub(ex sqlparse.Expr) (subResult, error) {
	r, ok := en.vals.subs[ex]
	if !ok {
		return r, fmt.Errorf("unsupported expression %T", ex)
	}
	return r, nil
}

// evalConst evaluates an expression that reads no tuple: INSERT values, the
// AS OF bound, VACUUM's RETAIN, the REENACT transaction id.
func evalConst(ex sqlparse.Expr, vals *execVals) (sqlval.Value, error) {
	b, err := (&env{vals: vals}).bind(ex, nil)
	if err != nil {
		return sqlval.Null, err
	}
	return b(nil, nil)
}

func (en *env) bindBinary(e *sqlparse.BinaryExpr, aggs aggSlots) (bound, error) {
	l, err := en.bind(e.Left, aggs)
	if err != nil {
		return nil, err
	}
	r, err := en.bind(e.Right, aggs)
	if err != nil {
		return nil, err
	}
	// both evaluates the two operands and applies f to their values.
	both := func(f func(l, r sqlval.Value) (sqlval.Value, error)) bound {
		return func(vals, ag []sqlval.Value) (sqlval.Value, error) {
			lv, err := l(vals, ag)
			if err != nil {
				return sqlval.Null, err
			}
			rv, err := r(vals, ag)
			if err != nil {
				return sqlval.Null, err
			}
			return f(lv, rv)
		}
	}
	switch e.Op {
	case "AND", "OR":
		// Short-circuit where three-valued logic allows: a FALSE (AND) or
		// TRUE (OR) left operand decides the result.
		isAnd := e.Op == "AND"
		return func(vals, ag []sqlval.Value) (sqlval.Value, error) {
			lv, err := l(vals, ag)
			if err != nil {
				return sqlval.Null, err
			}
			if isAnd && isFalse(lv) || !isAnd && isTrue(lv) {
				return lv, nil
			}
			rv, err := r(vals, ag)
			if err != nil {
				return sqlval.Null, err
			}
			if isAnd {
				return and3(lv, rv), nil
			}
			return or3(lv, rv), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		want := cmpOps[e.Op]
		return both(func(l, r sqlval.Value) (sqlval.Value, error) { return compareBool(l, r, want), nil }), nil
	case "LIKE":
		return both(func(l, r sqlval.Value) (sqlval.Value, error) {
			m, ok := sqlval.Like(l, r)
			if !ok {
				if l.IsNull() || r.IsNull() {
					return sqlval.Null, nil
				}
				return sqlval.Null, fmt.Errorf("LIKE requires text operands, got %s and %s", l.Kind(), r.Kind())
			}
			return sqlval.NewBool(m), nil
		}), nil
	case "+":
		// "+" doubles as concatenation when either side is text, matching the
		// lenient behaviour of several engines; otherwise numeric.
		return both(func(l, r sqlval.Value) (sqlval.Value, error) {
			if l.Kind() == sqlval.KindString || r.Kind() == sqlval.KindString {
				return sqlval.Concat(l, r)
			}
			return sqlval.Add(l, r)
		}), nil
	case "||", "-", "*", "/", "%":
		return both(arithOps[e.Op]), nil
	default:
		return nil, fmt.Errorf("unsupported operator %q", e.Op)
	}
}

var arithOps = map[string]func(l, r sqlval.Value) (sqlval.Value, error){
	"||": sqlval.Concat, "-": sqlval.Sub, "*": sqlval.Mul, "/": sqlval.Div, "%": sqlval.Mod,
}

// bindIn compiles IN / NOT IN. An IN-subquery probes the set its init-plan
// built; a list made only of literals and parameters becomes a set built
// once per execution; any other list is evaluated member by member for
// every row.
func (en *env) bindIn(e *sqlparse.InExpr, aggs aggSlots) (bound, error) {
	x, err := en.bind(e.Expr, aggs)
	if err != nil {
		return nil, err
	}
	list, err := en.bindAll(e.List, aggs)
	if err != nil {
		return nil, err
	}
	set := constInSet(e.List, list)
	if e.Sub != nil {
		r, err := en.sub(e)
		if err != nil {
			return nil, err
		}
		set = r.set
	}
	negated := e.Negated
	result := func(matched, anyNull bool) sqlval.Value {
		switch {
		case matched:
			return sqlval.NewBool(!negated)
		case anyNull:
			return sqlval.Null
		default:
			return sqlval.NewBool(negated)
		}
	}
	if set != nil {
		return one(x, func(v sqlval.Value) (sqlval.Value, error) { return result(set.probe(v)), nil }), nil
	}
	return func(vals, ag []sqlval.Value) (sqlval.Value, error) {
		v, err := x(vals, ag)
		if err != nil {
			return sqlval.Null, err
		}
		anyNull := v.IsNull()
		for _, item := range list {
			iv, err := item(vals, ag)
			if err != nil {
				return sqlval.Null, err
			}
			eq := compareBool(v, iv, cmpEQ)
			if eq.IsNull() {
				anyNull = true
			} else if eq.Bool() {
				return result(true, false), nil
			}
		}
		return result(false, anyNull), nil
	}, nil
}

// inSet is a constant IN list, or an IN-subquery's rows, as a hash set that
// answers exactly what comparing the probe with each member in turn would.
// Members are keyed by
// kind and payload (valKey), which is Compare's equality within a kind; the
// one equality across kinds, INTEGER against FLOAT as two floats (2 = 2.0),
// is a second probe: an integer probe also looks for the float it converts
// to among the FLOAT members, a float probe looks in intImages, the floats
// the INTEGER members convert to. hasNull/classes record what makes a
// non-matching probe's result NULL instead of FALSE — a NULL member, or a
// member of a kind the probe cannot be compared with.
type inSet struct {
	members   map[valKey]struct{}
	intImages map[valKey]struct{} // float64(m) of every INTEGER member m; nil if none
	hasFloat  bool
	hasNull   bool
	classes   uint8 // bit per comparability class present among the members
	sizeHint  int
}

// kindClass is the comparability class of a non-NULL kind: Compare orders
// two values exactly when their classes match.
func kindClass(k sqlval.Kind) uint8 {
	switch k {
	case sqlval.KindInt, sqlval.KindFloat:
		return 1
	case sqlval.KindString:
		return 2
	case sqlval.KindBool:
		return 4
	default: // dates (and nothing else: NULL never gets a class)
		return 8
	}
}

// constInSet builds the set of a list whose every entry is a literal or a
// parameter (bound, each is then a constant), and returns nil for any other
// list.
func constInSet(list []sqlparse.Expr, members []bound) *inSet {
	set := newInSet(len(list))
	for i, ex := range list {
		switch ex.(type) {
		case *sqlparse.Literal, *sqlparse.Param:
		default:
			return nil
		}
		v, _ := members[i](nil, nil)
		set.add(v)
	}
	return set
}

// newInSet returns an empty set sized for n members.
func newInSet(n int) *inSet {
	return &inSet{members: make(map[valKey]struct{}, n), sizeHint: n}
}

func (s *inSet) add(v sqlval.Value) {
	if v.IsNull() {
		s.hasNull = true
		return
	}
	s.members[keyOf(v)] = struct{}{}
	s.classes |= kindClass(v.Kind())
	switch v.Kind() {
	case sqlval.KindInt:
		if s.intImages == nil {
			s.intImages = make(map[valKey]struct{}, s.sizeHint)
		}
		s.intImages[floatKey(float64(v.Int()))] = struct{}{}
	case sqlval.KindFloat:
		s.hasFloat = true
	}
}

// probe reports whether v equals a member and, if not, whether some
// comparison was UNKNOWN.
func (s *inSet) probe(v sqlval.Value) (matched, anyNull bool) {
	if v.IsNull() {
		return false, true
	}
	k := keyOf(v)
	_, ok := s.members[k]
	switch {
	case ok:
	case k.kind == sqlval.KindInt && s.hasFloat:
		_, ok = s.members[floatKey(float64(v.Int()))]
	case k.kind == sqlval.KindFloat && s.intImages != nil:
		_, ok = s.intImages[k]
	}
	if ok {
		return true, false
	}
	return false, s.hasNull || s.classes&^kindClass(k.kind) != 0
}

// cmpOp says which outcomes of Compare (-1, 0, +1, indexed +1) satisfy a
// comparison operator.
type cmpOp [3]bool

var (
	cmpEQ  = cmpOp{false, true, false}
	cmpOps = map[string]cmpOp{
		"=": cmpEQ, "<>": {true, false, true},
		"<": {true, false, false}, "<=": {true, true, false},
		">": {false, false, true}, ">=": {false, true, true},
	}
)

// compareBool applies a comparison with SQL three-valued semantics,
// returning a BOOLEAN or NULL value.
func compareBool(l, r sqlval.Value, want cmpOp) sqlval.Value {
	c, ok := l.Compare(r)
	if !ok {
		return sqlval.Null
	}
	return sqlval.NewBool(want[c+1])
}

func isTrue(v sqlval.Value) bool  { return v.Kind() == sqlval.KindBool && v.Bool() }
func isFalse(v sqlval.Value) bool { return v.Kind() == sqlval.KindBool && !v.Bool() }

func and3(a, b sqlval.Value) sqlval.Value {
	if isFalse(a) || isFalse(b) {
		return sqlval.NewBool(false)
	}
	if a.IsNull() || b.IsNull() {
		return sqlval.Null
	}
	return sqlval.NewBool(true)
}

func or3(a, b sqlval.Value) sqlval.Value {
	if isTrue(a) || isTrue(b) {
		return sqlval.NewBool(true)
	}
	if a.IsNull() || b.IsNull() {
		return sqlval.Null
	}
	return sqlval.NewBool(false)
}
