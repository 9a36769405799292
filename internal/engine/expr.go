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

// env resolves column references against the current tuple layout. params
// holds the execution's bound parameter values (prepared statements); it is
// copied into every derived env so `?` placeholders resolve at any depth of
// the operator tree.
type env struct {
	bindings []binding
	params   []sqlval.Value
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
// column references are slot reads, `?` placeholders are the execution's
// values, constant IN lists are sets. aggs carries the current group's
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
		if e.Index < 1 || e.Index > len(en.params) {
			return nil, fmt.Errorf("parameter %d is not bound (%d values supplied)", e.Index, len(en.params))
		}
		return constant(en.params[e.Index-1]), nil
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

// evalConst evaluates an expression that reads no tuple: INSERT values, the
// AS OF bound, VACUUM's RETAIN, the REENACT transaction id.
func evalConst(ex sqlparse.Expr, params []sqlval.Value) (sqlval.Value, error) {
	b, err := (&env{params: params}).bind(ex, nil)
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

// bindIn compiles IN / NOT IN. A list made only of literals and parameters
// (which is also what an uncorrelated IN-subquery has been rewritten into)
// becomes a set built once per execution; any other list is evaluated
// member by member for every row.
func (en *env) bindIn(e *sqlparse.InExpr, aggs aggSlots) (bound, error) {
	x, err := en.bind(e.Expr, aggs)
	if err != nil {
		return nil, err
	}
	list, err := en.bindAll(e.List, aggs)
	if err != nil {
		return nil, err
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
	if set, ok := newInSet(e.List, list); ok {
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

// inSet is a constant IN list as a hash set that answers exactly what
// comparing the probe with each member in turn would. Members are keyed by
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

// newInSet builds the set when every list entry is a literal or parameter
// (bound is then a constant). ok is false for any other list.
func newInSet(list []sqlparse.Expr, members []bound) (*inSet, bool) {
	set := &inSet{members: make(map[valKey]struct{}, len(list))}
	for i, ex := range list {
		switch ex.(type) {
		case *sqlparse.Literal, *sqlparse.Param:
		default:
			return nil, false
		}
		v, _ := members[i](nil, nil)
		if v.IsNull() {
			set.hasNull = true
			continue
		}
		set.members[keyOf(v)] = struct{}{}
		set.classes |= kindClass(v.Kind())
		switch v.Kind() {
		case sqlval.KindInt:
			if set.intImages == nil {
				set.intImages = make(map[valKey]struct{}, len(list))
			}
			set.intImages[floatKey(float64(v.Int()))] = struct{}{}
		case sqlval.KindFloat:
			set.hasFloat = true
		}
	}
	return set, true
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

// collectAggregates walks an expression and appends every aggregate call.
func collectAggregates(ex sqlparse.Expr, out *[]*sqlparse.FuncExpr) {
	switch e := ex.(type) {
	case *sqlparse.FuncExpr:
		*out = append(*out, e)
	case *sqlparse.BinaryExpr:
		collectAggregates(e.Left, out)
		collectAggregates(e.Right, out)
	case *sqlparse.UnaryExpr:
		collectAggregates(e.Expr, out)
	case *sqlparse.BetweenExpr:
		collectAggregates(e.Expr, out)
		collectAggregates(e.Lo, out)
		collectAggregates(e.Hi, out)
	case *sqlparse.InExpr:
		collectAggregates(e.Expr, out)
		for _, i := range e.List {
			collectAggregates(i, out)
		}
	case *sqlparse.IsNullExpr:
		collectAggregates(e.Expr, out)
	}
}

// columnRefs walks an expression and appends every column reference.
func columnRefs(ex sqlparse.Expr, out *[]*sqlparse.ColumnRef) {
	switch e := ex.(type) {
	case *sqlparse.ColumnRef:
		*out = append(*out, e)
	case *sqlparse.BinaryExpr:
		columnRefs(e.Left, out)
		columnRefs(e.Right, out)
	case *sqlparse.UnaryExpr:
		columnRefs(e.Expr, out)
	case *sqlparse.BetweenExpr:
		columnRefs(e.Expr, out)
		columnRefs(e.Lo, out)
		columnRefs(e.Hi, out)
	case *sqlparse.InExpr:
		columnRefs(e.Expr, out)
		for _, i := range e.List {
			columnRefs(i, out)
		}
	case *sqlparse.IsNullExpr:
		columnRefs(e.Expr, out)
	case *sqlparse.FuncExpr:
		if e.Arg != nil {
			columnRefs(e.Arg, out)
		}
	}
}
