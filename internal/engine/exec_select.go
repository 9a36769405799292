package engine

import (
	"fmt"
	"sort"
	"strings"

	"ldv/internal/plan"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// The executor materializes: every operator consumes its whole input
// relation and produces its whole output before its parent runs. What keeps
// that cheap is doing the selective work first — leaves filter stored rows
// before copying anything (scan.go), copy only the columns the statement
// reads, and stop early under a LIMIT; ORDER BY … LIMIT keeps n rows, not
// a sorted relation — and binding every expression once per operator.

// relation is an intermediate executor result: a tuple layout plus the
// materialized tuples.
type relation struct {
	env    env
	tuples []tuple
}

// execSelect runs a SELECT as a statement of its own, filling res. When
// its caller opened a lineage sink, it converts what the operators carried,
// once the rows are final, to the Result's lineage and version set.
func (ec *stmtCtx) execSelect(s *sqlparse.Select, res *Result) error {
	var lineage [][]vid
	var err error
	if res.Columns, res.Rows, lineage, err = ec.query(ec.db.planTree(stmtCatalog{ec}, ec.prep, s)); err != nil {
		return err
	}
	if ec.lin != nil {
		ec.lin.finish(res, lineage, nil)
	}
	return nil
}

// query runs the SELECT of a tree (a query's own, or an INSERT ... SELECT's)
// with its subqueries: what they read joins every result row's lineage.
func (ec *stmtCtx) query(tree *plan.Tree) (cols []string, rows [][]sqlval.Value, lineage [][]vid, err error) {
	var sub []vid
	if err = ec.runInit(tree, &sub); err != nil {
		return nil, nil, nil, err
	}
	if cols, rows, lineage, err = ec.selectRows(tree); err != nil {
		return nil, nil, nil, err
	}
	if len(sub) > 0 {
		var ids slab[vid]
		for i := range lineage {
			lineage[i] = ec.lin.concat(&ids, lineage[i], sub)
		}
	}
	return cols, rows, lineage, nil
}

// runInit runs a tree's init-plans — the statement's uncorrelated subqueries
// — once each, in order and before anything that reads them, leaving their
// results in the execution's value table. They run in the statement's own
// context: same snapshot, same already-locked table footprint, same lineage
// sink; reads gains what their rows depended on, in first-occurrence order
// (nothing when the statement captures no lineage). A correlated subquery
// surfaces as the inner query's "column does not exist", wrapped to say so.
func (ec *stmtCtx) runInit(tree *plan.Tree, reads *[]vid) error {
	for _, ip := range tree.Init {
		if ip.Tree == nil {
			return fmt.Errorf("subquery nesting exceeds %d levels", plan.MaxSubqueryDepth)
		}
		if err := ec.runInit(ip.Tree, reads); err != nil {
			return err
		}
		cols, rows, lineage, err := ec.selectRows(ip.Tree)
		if err != nil {
			return fmt.Errorf("subquery (%s): %w", ip.Tree.Select.String(), err)
		}
		if ec.lin != nil {
			*reads = ec.lin.union(*reads, lineage...)
		}
		var r subResult
		switch ip.Expr.(type) {
		case *sqlparse.ExistsExpr:
			r.val = sqlval.NewBool(len(rows) > 0)
		case *sqlparse.InExpr:
			if len(cols) != 1 {
				return fmt.Errorf("IN subquery must return one column, got %d", len(cols))
			}
			r.set = newInSet(len(rows))
			for _, row := range rows {
				r.set.add(row[0])
			}
		default: // scalar: zero rows yield NULL, as in standard SQL
			if len(cols) != 1 {
				return fmt.Errorf("scalar subquery must return one column, got %d", len(cols))
			}
			if len(rows) > 1 {
				return fmt.Errorf("scalar subquery returned %d rows", len(rows))
			}
			if len(rows) == 1 {
				r.val = rows[0][0]
			}
		}
		if ec.vals.subs == nil {
			ec.vals.subs = map[sqlparse.Expr]subResult{}
		}
		ec.vals.subs[ip.Expr] = r
	}
	return nil
}

// selectRows runs a tree's SELECT, its init-plans done, returning its output
// with, when the statement captures lineage, one lineage list per row.
func (ec *stmtCtx) selectRows(tree *plan.Tree) (cols []string, rows [][]sqlval.Value, lineage [][]vid, err error) {
	s := tree.Select
	refs := append([]sqlparse.TableRef(nil), s.From...)
	for _, j := range s.Joins {
		refs = append(refs, j.Table)
	}
	seen := map[string]bool{}
	for _, r := range refs {
		name := r.EffectiveName()
		if seen[name] {
			return nil, nil, nil, fmt.Errorf("duplicate table name or alias %q", name)
		}
		seen[name] = true
	}

	// The FROM/WHERE/GROUP BY portion: the pre-projection relation,
	// post-aggregation for aggregate queries.
	sp := newSelPlan(tree)
	rel, err := ec.execAccess(sp.access)
	if err != nil {
		return nil, nil, nil, err
	}
	if sp.tree.Reordered {
		// The greedy join order built the tuple layout in cost order;
		// restore the syntactic FROM order so SELECT * stays stable.
		rel = reorderRelation(rel, refs)
	}
	ar := &aggRelation{rel: rel}
	if sp.agg != nil {
		if err := ec.ops.node(sp.agg, func() (int, error) {
			var aerr error
			if ar, aerr = aggregate(s, rel, ec.lin); aerr != nil {
				return 0, aerr
			}
			return len(ar.rel.tuples), nil
		}); err != nil {
			return nil, nil, nil, err
		}
	}
	err = ec.ops.node(sp.project, func() (int, error) {
		var perr error
		cols, rows, lineage, perr = ec.project(s, sp, ar)
		return len(rows), perr
	})
	return cols, rows, lineage, err
}

// selPlan is a SELECT's plan tree taken apart for the executor: the
// relational access subtree it walks, and the output stages the planner
// stacked on top (nil when the plan has no such stage). Which stages run,
// and what EXPLAIN ANALYZE reports beside their actual row counts, comes
// from these nodes.
type selPlan struct {
	tree     *plan.Tree
	access   plan.Node
	agg      *plan.AggregateNode
	distinct *plan.DistinctNode
	sort     *plan.SortNode
	topn     *plan.TopNNode
	limit    *plan.LimitNode
	project  *plan.ProjectNode
}

// newSelPlan unwraps the output chain below the project root (the query
// under an INSERT ... SELECT's root): one of top-N / sort / limit, then
// distinct, then aggregate.
func newSelPlan(tree *plan.Tree) *selPlan {
	sp := &selPlan{tree: tree}
	root := tree.Root
	if ins, ok := root.(*plan.InsertNode); ok {
		root = ins.Query
	}
	sp.project = root.(*plan.ProjectNode)
	n := sp.project.Input
	switch x := n.(type) {
	case *plan.TopNNode:
		sp.topn, n = x, x.Input
	case *plan.SortNode:
		sp.sort, n = x, x.Input
	case *plan.LimitNode:
		sp.limit, n = x, x.Input
	}
	if d, ok := n.(*plan.DistinctNode); ok {
		sp.distinct, n = d, d.Input
	}
	if a, ok := n.(*plan.AggregateNode); ok {
		sp.agg, n = a, a.Input
	}
	sp.access = n
	return sp
}

// execAccess executes a relational plan subtree (leaves, filters, hash
// joins), materializing its relation.
func (ec *stmtCtx) execAccess(n plan.Node) (relation, error) {
	switch node := n.(type) {
	case *plan.ValuesNode:
		// Table-less SELECT (e.g. SELECT 1+1): a single empty tuple.
		return relation{env: env{vals: &ec.vals}, tuples: []tuple{{}}}, nil
	case *plan.ScanNode, *plan.IndexScanNode:
		return ec.execLeaf(n)
	case *plan.FilterNode:
		switch node.Input.(type) {
		case *plan.ScanNode, *plan.IndexScanNode:
			return ec.execLeaf(n) // fused into the leaf's loop
		}
		rel, err := ec.execAccess(node.Input)
		if err != nil {
			return relation{}, err
		}
		preds, err := rel.env.bindAll(node.Conjuncts, nil)
		if err != nil {
			return relation{}, err
		}
		err = ec.ops.node(node, func() (int, error) {
			kept := rel.tuples[:0]
		tuples:
			for _, t := range rel.tuples {
				for _, p := range preds {
					v, err := p(t.vals, nil)
					if err != nil {
						return 0, err
					}
					if !isTrue(v) {
						continue tuples
					}
				}
				kept = append(kept, t)
			}
			rel.tuples = kept
			return len(kept), nil
		})
		return rel, err
	case *plan.HashJoinNode:
		left, err := ec.execAccess(node.Left)
		if err != nil {
			return relation{}, err
		}
		right, err := ec.execAccess(node.Right)
		if err != nil {
			return relation{}, err
		}
		var out relation
		err = ec.ops.node(node, func() (int, error) {
			var jerr error
			out, jerr = hashJoin(left, right, node.LeftKeys, node.RightKeys, ec.lin)
			return len(out.tuples), jerr
		})
		return out, err
	}
	return relation{}, fmt.Errorf("unsupported plan node %T", n)
}

// reorderRelation permutes a joined relation's per-leaf binding blocks back
// to the syntactic FROM order. Each leaf contributed one contiguous block
// of bindings qualified by its effective name (none at all when the
// statement reads no column of it), so the permutation moves whole blocks.
func reorderRelation(rel relation, refs []sqlparse.TableRef) relation {
	type block struct{ start, end int }
	blocks := map[string]block{}
	for i := 0; i < len(rel.env.bindings); {
		j := i
		name := rel.env.bindings[i].table
		for j < len(rel.env.bindings) && rel.env.bindings[j].table == name {
			j++
		}
		blocks[name] = block{start: i, end: j}
		i = j
	}
	perm := make([]int, 0, len(rel.env.bindings))
	bindings := make([]binding, 0, len(rel.env.bindings))
	for _, r := range refs {
		b := blocks[r.EffectiveName()]
		for i := b.start; i < b.end; i++ {
			perm = append(perm, i)
			bindings = append(bindings, rel.env.bindings[i])
		}
	}
	if len(perm) != len(rel.env.bindings) {
		return rel
	}
	out := relation{env: env{bindings: bindings, vals: rel.env.vals}, tuples: make([]tuple, len(rel.tuples))}
	var vals slab[sqlval.Value]
	for ti, t := range rel.tuples {
		vals := vals.take(len(perm))
		for i, p := range perm {
			vals[i] = t.vals[p]
		}
		out.tuples[ti] = tuple{vals: vals, lineage: t.lineage}
	}
	return out
}

// hashJoin joins two relations on the given key expression lists. With no
// keys it degrades to a cross join. lin is the statement's lineage sink
// (nil when it captures none): a joined tuple depends on what both sides
// depended on.
func hashJoin(left, right relation, leftKeys, rightKeys []sqlparse.Expr, lin *lineageSink) (relation, error) {
	out := relation{}
	out.env.bindings = append(append([]binding(nil), left.env.bindings...), right.env.bindings...)
	out.env.vals = left.env.vals

	var vals slab[sqlval.Value]
	var ids slab[vid]
	combine := func(l, r tuple) tuple {
		vals := vals.take(len(l.vals) + len(r.vals))
		copy(vals[copy(vals, l.vals):], r.vals)
		t := tuple{vals: vals}
		if lin != nil {
			t.lineage = lin.concat(&ids, l.lineage, r.lineage)
		}
		return t
	}

	if len(leftKeys) == 0 {
		for _, l := range left.tuples {
			for _, r := range right.tuples {
				out.tuples = append(out.tuples, combine(l, r))
			}
		}
		return out, nil
	}

	lk, err := left.env.bindAll(leftKeys, nil)
	if err != nil {
		return relation{}, err
	}
	rk, err := right.env.bindAll(rightKeys, nil)
	if err != nil {
		return relation{}, err
	}
	// joinKey evaluates a tuple's key into dst; ok is false when a column is
	// NULL, which never joins.
	joinKey := func(t tuple, keys []bound, dst []sqlval.Value) (ok bool, err error) {
		for i, k := range keys {
			v, err := k(t.vals, nil)
			if err != nil {
				return false, err
			}
			if v.IsNull() {
				return false, nil
			}
			dst[i] = v
		}
		return true, nil
	}

	// Build on the smaller side.
	buildRight := len(right.tuples) <= len(left.tuples)
	build, probe := right, left
	buildKeys, probeKeys := rk, lk
	if !buildRight {
		build, probe = left, right
		buildKeys, probeKeys = lk, rk
	}
	table := newKeyTable(len(buildKeys), len(build.tuples))
	rowOf := make([]int32, 0, len(build.tuples)) // by entry: its build tuple
	key := make([]sqlval.Value, len(buildKeys))
	out.tuples = make([]tuple, 0, len(probe.tuples)) // a foreign-key join emits about one row per probe
	for i, t := range build.tuples {
		ok, err := joinKey(t, buildKeys, key)
		if err != nil {
			return relation{}, err
		}
		if ok {
			table.add(key, hashKey(key))
			rowOf = append(rowOf, int32(i))
		}
	}
	for _, p := range probe.tuples {
		ok, err := joinKey(p, probeKeys, key)
		if err != nil {
			return relation{}, err
		}
		if !ok {
			continue
		}
		h := hashKey(key)
		for e := table.find(key, h); e >= 0; e = table.findNext(e, key, h) {
			b := build.tuples[rowOf[e]]
			if buildRight {
				out.tuples = append(out.tuples, combine(p, b))
			} else {
				out.tuples = append(out.tuples, combine(b, p))
			}
		}
	}
	return out, nil
}

// aggRelation carries the relation plus, for aggregate queries, each
// tuple's (group's) aggregate results, indexed by slots.
type aggRelation struct {
	rel   relation
	aggs  [][]sqlval.Value // parallel to rel.tuples; nil for plain queries
	slots aggSlots
}

// aggsAt returns tuple i's aggregate results (nil for plain queries).
func (ar *aggRelation) aggsAt(i int) []sqlval.Value {
	if ar.aggs == nil {
		return nil
	}
	return ar.aggs[i]
}

// aggregate applies GROUP BY / aggregate / HAVING semantics. With a lineage
// sink a group depends on what its members depended on.
func aggregate(s *sqlparse.Select, rel relation, lin *lineageSink) (*aggRelation, error) {
	var aggCalls []*sqlparse.FuncExpr
	collect := func(x sqlparse.Expr) bool {
		c, isAgg := x.(*sqlparse.FuncExpr)
		if isAgg {
			aggCalls = append(aggCalls, c)
		}
		return !isAgg
	}
	for _, it := range s.Items {
		sqlparse.Walk(it.Expr, collect)
	}
	for _, o := range s.OrderBy {
		sqlparse.Walk(o.Expr, collect)
	}
	sqlparse.Walk(s.Having, collect)
	slots := make(aggSlots, len(aggCalls))
	args := make([]bound, len(aggCalls)) // nil for count(*)
	for i, c := range aggCalls {
		if !sqlparse.AggregateFuncs[c.Name] {
			return nil, fmt.Errorf("unknown function %s", c.Name)
		}
		slots[c] = i
		if c.Arg != nil {
			arg, err := rel.env.bind(c.Arg, nil)
			if err != nil {
				return nil, err
			}
			args[i] = arg
		}
	}
	groupBy, err := rel.env.bindAll(s.GroupBy, nil)
	if err != nil {
		return nil, err
	}
	var having bound
	if s.Having != nil {
		if having, err = rel.env.bind(s.Having, slots); err != nil {
			return nil, err
		}
	}

	type group struct {
		rep  tuple // representative tuple (first member)
		accs []aggAcc
	}
	var accs slab[aggAcc]
	newGroup := func(rep tuple) group {
		g := group{rep: rep, accs: accs.take(len(aggCalls))}
		for i, c := range aggCalls {
			g.accs[i] = newAggAcc(c)
		}
		return g
	}

	groups := newKeyTable(len(groupBy), 0) // entry = position in order
	var order []group
	var groupOf []int32 // by input tuple, kept for the lineage union
	if lin != nil {
		groupOf = make([]int32, len(rel.tuples))
	}
	key := make([]sqlval.Value, len(groupBy))
	for ti, t := range rel.tuples {
		for i, g := range groupBy {
			if key[i], err = g(t.vals, nil); err != nil {
				return nil, err
			}
		}
		h := hashKey(key)
		g := groups.find(key, h)
		if g < 0 {
			g = groups.add(key, h)
			order = append(order, newGroup(t))
		}
		if lin != nil {
			groupOf[ti] = g
		}
		grp := &order[g]
		for i, arg := range args {
			var v sqlval.Value
			if arg != nil {
				if v, err = arg(t.vals, nil); err != nil {
					return nil, err
				}
			}
			grp.accs[i].add(v)
		}
	}
	// A global aggregate over an empty input still yields one (empty) group.
	if len(order) == 0 && len(s.GroupBy) == 0 {
		order = append(order, newGroup(tuple{vals: make([]sqlval.Value, len(rel.env.bindings))}))
	}

	var lineage [][]vid // by group
	if lin != nil {
		lineage = lin.unionGroups(rel.tuples, groupOf, len(order))
	}
	out := &aggRelation{slots: slots, aggs: [][]sqlval.Value{}}
	out.rel.env = rel.env
	var vals slab[sqlval.Value]
	for g, grp := range order {
		t := grp.rep
		if lin != nil {
			t.lineage = lineage[g]
		}
		results := vals.take(len(aggCalls))
		for i := range grp.accs {
			results[i] = grp.accs[i].result()
		}
		// HAVING filters whole groups, evaluated with the aggregate context.
		if having != nil {
			v, err := having(t.vals, results)
			if err != nil {
				return nil, err
			}
			if !isTrue(v) {
				continue
			}
		}
		out.rel.tuples = append(out.rel.tuples, t)
		out.aggs = append(out.aggs, results)
	}
	return out, nil
}

// aggAcc accumulates one aggregate call.
type aggAcc struct {
	fn       string
	star     bool
	distinct bool
	count    int64
	sum      float64
	sumInt   int64
	intOnly  bool
	min, max sqlval.Value
	seen     *keyTable // the DISTINCT aggregate's values so far
}

func newAggAcc(c *sqlparse.FuncExpr) aggAcc {
	a := aggAcc{fn: c.Name, star: c.Star, distinct: c.Distinct, intOnly: true}
	if c.Distinct {
		a.seen = newKeyTable(1, 0)
	}
	return a
}

func (a *aggAcc) add(v sqlval.Value) {
	if a.star {
		a.count++
		return
	}
	if v.IsNull() {
		return
	}
	if a.distinct {
		key := []sqlval.Value{v}
		h := v.Hash(0)
		if a.seen.find(key, h) >= 0 {
			return
		}
		a.seen.add(key, h)
	}
	a.count++
	switch a.fn {
	case "SUM", "AVG":
		if f, ok := v.AsFloat(); ok {
			a.sum += f
			if v.Kind() == sqlval.KindInt {
				a.sumInt += v.Int()
			} else {
				a.intOnly = false
			}
		}
	case "MIN":
		if a.min.IsNull() {
			a.min = v
		} else if c, ok := v.Compare(a.min); ok && c < 0 {
			a.min = v
		}
	case "MAX":
		if a.max.IsNull() {
			a.max = v
		} else if c, ok := v.Compare(a.max); ok && c > 0 {
			a.max = v
		}
	}
}

func (a *aggAcc) result() sqlval.Value {
	switch a.fn {
	case "COUNT":
		return sqlval.NewInt(a.count)
	case "SUM":
		if a.count == 0 {
			return sqlval.Null
		}
		if a.intOnly {
			return sqlval.NewInt(a.sumInt)
		}
		return sqlval.NewFloat(a.sum)
	case "AVG":
		if a.count == 0 {
			return sqlval.Null
		}
		return sqlval.NewFloat(a.sum / float64(a.count))
	case "MIN":
		return a.min
	case "MAX":
		return a.max
	default:
		return sqlval.Null
	}
}

// outCol is one output column: a direct slot copy (eval nil) or a bound
// expression.
type outCol struct {
	name string
	slot int
	eval bound
}

func (o *outCol) value(vals, aggs []sqlval.Value) (sqlval.Value, error) {
	if o.eval == nil {
		return vals[o.slot], nil
	}
	return o.eval(vals, aggs)
}

// bindOutputs resolves the select list against the layout (star expansion
// excludes the hidden provenance attributes).
func bindOutputs(s *sqlparse.Select, en *env, slots aggSlots) ([]outCol, error) {
	var outs []outCol
	for _, it := range s.Items {
		if it.Star {
			found := it.Table == ""
			for i, b := range en.bindings {
				if it.Table != "" && b.table != it.Table {
					continue
				}
				found = true
				if !IsProvColumn(b.name) {
					outs = append(outs, outCol{name: b.name, slot: i})
				}
			}
			if !found {
				return nil, fmt.Errorf("table %q does not exist in FROM clause", it.Table)
			}
			continue
		}
		o := outCol{name: it.Alias}
		switch e := it.Expr.(type) {
		case *sqlparse.ColumnRef:
			slot, err := en.resolve(e)
			if err != nil {
				return nil, err
			}
			o.slot = slot
			if o.name == "" {
				o.name = e.Column
			}
		default:
			eval, err := en.bind(it.Expr, slots)
			if err != nil {
				return nil, err
			}
			o.eval = eval
			if fe, ok := it.Expr.(*sqlparse.FuncExpr); ok && o.name == "" {
				o.name = strings.ToLower(fe.Name)
			} else if o.name == "" {
				o.name = "column"
			}
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// bindOrderKeys binds the ORDER BY keys against the pre-projection layout.
// A bare identifier that names no column but matches an output alias
// orders by that output.
func bindOrderKeys(s *sqlparse.Select, en *env, slots aggSlots, outs []outCol) ([]outCol, error) {
	keys := make([]outCol, len(s.OrderBy))
keys:
	for k, ob := range s.OrderBy {
		if cr, ok := ob.Expr.(*sqlparse.ColumnRef); ok && cr.Table == "" {
			if _, err := en.resolve(cr); err != nil {
				for _, o := range outs {
					if o.name == cr.Column {
						keys[k] = o
						continue keys
					}
				}
			}
		}
		eval, err := en.bind(ob.Expr, slots)
		if err != nil {
			return nil, err
		}
		keys[k].eval = eval
	}
	return keys, nil
}

// project produces the result rows: which input tuples become output rows
// and in what order is settled first (DISTINCT, ORDER BY, LIMIT — each
// recorded as the operator the plan names when EXPLAIN ANALYZE is
// collecting), then the select list is evaluated for those tuples only.
// DISTINCT is the one stage that needs every row projected up front.
func (ec *stmtCtx) project(s *sqlparse.Select, sp *selPlan, ar *aggRelation) (cols []string, rows [][]sqlval.Value, lineage [][]vid, err error) {
	en, tuples := &ar.rel.env, ar.rel.tuples
	outs, err := bindOutputs(s, en, ar.slots)
	if err != nil {
		return nil, nil, nil, err
	}
	keys, err := bindOrderKeys(s, en, ar.slots, outs)
	if err != nil {
		return nil, nil, nil, err
	}
	cols = make([]string, len(outs))
	for i, o := range outs {
		cols[i] = o.name
	}
	// evalRow evaluates the given columns (outputs or order keys) for input
	// tuple i.
	evalRow := func(cs []outCol, i int, dst []sqlval.Value) error {
		vals, aggs := tuples[i].vals, ar.aggsAt(i)
		for c := range cs {
			v, err := cs[c].value(vals, aggs)
			if err != nil {
				return err
			}
			dst[c] = v
		}
		return nil
	}

	// picked lists the input tuples that become output rows, in order.
	picked := make([]int, len(tuples))
	for i := range picked {
		picked[i] = i
	}
	var vals slab[sqlval.Value]
	var projected [][]sqlval.Value // by input tuple, when DISTINCT projected them all
	if sp.distinct != nil {
		if err = ec.ops.node(sp.distinct, func() (int, error) {
			projected = make([][]sqlval.Value, len(tuples))
			first := newKeyTable(len(outs), 0) // entry = the row's position in picked
			var groupOf []int32                // by input tuple, kept for the lineage union
			if ec.lin != nil {
				groupOf = make([]int32, len(tuples))
			}
			picked = picked[:0]
			for i := range tuples {
				row := vals.take(len(outs))
				projected[i] = row
				if err := evalRow(outs, i, row); err != nil {
					return 0, err
				}
				h := hashKey(row)
				g := first.find(row, h)
				if g < 0 {
					g = first.add(row, h)
					picked = append(picked, i)
				}
				if ec.lin != nil {
					groupOf[i] = g
				}
			}
			// A surviving row depends on what every duplicate of it
			// depended on.
			if ec.lin != nil && len(picked) < len(tuples) {
				for g, ids := range ec.lin.unionGroups(tuples, groupOf, len(picked)) {
					tuples[picked[g]].lineage = ids
				}
			}
			return len(picked), nil
		}); err != nil {
			return nil, nil, nil, err
		}
	}

	order := func(n plan.Node, keep int) error {
		return ec.ops.node(n, func() (int, error) {
			desc := make([]bool, len(s.OrderBy))
			for k, ob := range s.OrderBy {
				desc[k] = ob.Desc
			}
			var oerr error
			picked, oerr = firstOrdered(picked, keep, desc, func(i int, dst []sqlval.Value) error {
				return evalRow(keys, i, dst)
			})
			return len(picked), oerr
		})
	}
	switch {
	case sp.topn != nil:
		err = order(sp.topn, sp.topn.N)
	case sp.sort != nil:
		err = order(sp.sort, len(picked))
	case sp.limit != nil:
		err = ec.ops.node(sp.limit, func() (int, error) {
			if len(picked) > sp.limit.N {
				picked = picked[:sp.limit.N]
			}
			return len(picked), nil
		})
	}
	if err != nil {
		return nil, nil, nil, err
	}

	rows = make([][]sqlval.Value, len(picked))
	if ec.lin != nil {
		lineage = make([][]vid, len(picked))
	}
	for o, i := range picked {
		if projected != nil {
			rows[o] = projected[i]
		} else {
			rows[o] = vals.take(len(outs))
			if err := evalRow(outs, i, rows[o]); err != nil {
				return nil, nil, nil, err
			}
		}
		if ec.lin != nil {
			lineage[o] = tuples[i].lineage
		}
	}
	return cols, rows, lineage, nil
}

// firstOrdered returns the keep first of the picked tuples in ORDER BY
// order, ties in input order — the keep-prefix of a stable sort. It never
// holds more than keep rows: once that many are in hand they form a heap
// with the row that sorts last on top, and a later row either displaces it
// or is dropped after one comparison. keyAt evaluates a tuple's keys.
func firstOrdered(picked []int, keep int, desc []bool, keyAt func(i int, dst []sqlval.Value) error) ([]int, error) {
	if keep > len(picked) {
		keep = len(picked)
	}
	if keep == 0 {
		return nil, nil
	}
	type row struct {
		idx  int
		keys []sqlval.Value
	}
	// before is the output order: by keys, then by input position (picked
	// is ascending), which makes it total.
	before := func(a, b row) bool {
		for k := range desc {
			if x, y := a.keys[k], b.keys[k]; !x.Equal(y) {
				return sqlval.SortLess(x, y) != desc[k]
			}
		}
		return a.idx < b.idx
	}
	nk := len(desc)
	kept := make([]row, 0, keep)
	keybuf := make([]sqlval.Value, (keep+1)*nk)
	cand := row{keys: keybuf[keep*nk:]}
	// siftDown restores the heap below position i (children sort before
	// their parent).
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(kept) {
				return
			}
			if c+1 < len(kept) && before(kept[c], kept[c+1]) {
				c++
			}
			if !before(kept[i], kept[c]) {
				return
			}
			kept[i], kept[c] = kept[c], kept[i]
			i = c
		}
	}
	heaped := false
	for _, i := range picked {
		if len(kept) < keep {
			r := row{idx: i, keys: keybuf[len(kept)*nk : (len(kept)+1)*nk]}
			if err := keyAt(i, r.keys); err != nil {
				return nil, err
			}
			kept = append(kept, r)
			continue
		}
		if !heaped {
			for j := len(kept)/2 - 1; j >= 0; j-- {
				siftDown(j)
			}
			heaped = true
		}
		cand.idx = i
		if err := keyAt(i, cand.keys); err != nil {
			return nil, err
		}
		if before(cand, kept[0]) {
			copy(kept[0].keys, cand.keys)
			kept[0].idx = i
			siftDown(0)
		}
	}
	sort.Slice(kept, func(a, b int) bool { return before(kept[a], kept[b]) })
	out := picked[:0]
	for _, r := range kept {
		out = append(out, r.idx)
	}
	return out, nil
}
