package plan

import (
	"sort"

	"ldv/internal/sqlparse"
)

// Planning never fails: semantic errors (unknown columns, aggregates in
// WHERE, ...) are left in unresolved filter nodes for the executor to
// surface at runtime, so the planner can run over arbitrary ASTs (it is
// fuzzed for exactly that). Determinism matters: EXPLAIN output feeds a
// regression test, so every choice below iterates slices, never maps.

// defaultRows is the cardinality guess for tables without statistics
// (virtual system views).
const defaultRows = 1000

// filterSelectivity is the per-conjunct row reduction guess.
const filterSelectivity = 1.0 / 3

// PlanStatement lowers any plannable statement, its uncorrelated subqueries
// included, returning nil for statement kinds that have no execution tree
// (DDL, transaction control).
func PlanStatement(cat Catalog, stmt sqlparse.Statement) *Tree {
	return planStatement(cat, stmt, 0)
}

// planStatement lowers a statement found depth subqueries below the one
// PlanStatement was handed. To everything but this function a subquery is a
// run-time constant, as a `?` parameter is (literalExpr): the statement is
// planned with its subqueries in place, then each gets a tree of its own.
func planStatement(cat Catalog, stmt sqlparse.Statement, depth int) *Tree {
	var tree *Tree
	switch s := stmt.(type) {
	case *sqlparse.Select:
		tree = planSelect(cat, s)
	case *sqlparse.Insert:
		n := &InsertNode{Table: s.Table, Est: float64(len(s.Rows))}
		tree = &Tree{Root: n}
		if s.Query != nil {
			// INSERT ... SELECT embeds the query's plan, init-plans and all.
			q := planStatement(cat, s.Query, depth)
			n.Query, n.Est = q.Root, q.Root.EstRows()
			tree.Select, tree.Init, tree.Reordered = q.Select, q.Init, q.Reordered
		}
	case *sqlparse.Copy: // COPY FROM loads a file: an INSERT of its records
		tree = &Tree{Root: &InsertNode{Table: s.Table}}
	case *sqlparse.Update:
		access, est := planAccess(cat, s.Table, s.Where)
		tree = &Tree{Root: &UpdateNode{Table: s.Table, Access: access, Est: est}}
	case *sqlparse.Delete:
		access, est := planAccess(cat, s.Table, s.Where)
		tree = &Tree{Root: &DeleteNode{Table: s.Table, Access: access, Est: est}}
	default:
		return nil
	}
	sqlparse.StmtExprs(stmt, func(e sqlparse.Expr) {
		sqlparse.Walk(e, func(x sqlparse.Expr) bool {
			if q := sqlparse.Subquery(x); q != nil {
				ip := InitPlan{Expr: x}
				if depth < MaxSubqueryDepth {
					ip.Tree = planStatement(cat, q, depth+1)
				}
				tree.Init = append(tree.Init, ip)
			}
			return true
		})
	})
	return tree
}

// planAccess builds the row-locating subtree of an UPDATE or DELETE — an
// access path over the target table (index scan when the WHERE clause
// matches an index) under one filter holding every conjunct of the WHERE
// clause, the shape the executor fuses into a single loop over the stored
// versions. The filter counts as resolved only when the planner could push
// all of it.
func planAccess(cat Catalog, table string, where sqlparse.Expr) (Node, float64) {
	p := newPlanner(cat, []sqlparse.TableRef{{Name: table}})
	splitConjuncts(where, &p.conjuncts)
	p.attribute()
	var pushed []int
	for i, c := range p.conj {
		if c.ok && !c.hasAgg && len(c.refs) <= 1 {
			pushed = append(pushed, i)
		}
	}
	access := p.planLeaf(0, pushed)
	var residual []sqlparse.Expr
	for i := range p.conj {
		if !p.conj[i].used {
			residual = append(residual, p.conjuncts[i])
		}
	}
	est := access.EstRows()
	if len(residual) > 0 {
		est = filteredEst(est, len(residual))
		if f, ok := access.(*FilterNode); ok {
			access, residual = f.Input, append(append([]sqlparse.Expr(nil), f.Conjuncts...), residual...)
		}
		access = &FilterNode{Input: access, Conjuncts: residual, Est: est}
	}
	return access, est
}

// planSelect lowers a SELECT: per-leaf index selection and predicate
// pushdown, greedy join ordering, then the projection chain in executor
// order (aggregate, distinct, sort, limit below the project root).
func planSelect(cat Catalog, s *sqlparse.Select) *Tree {
	tree := &Tree{Select: s}
	var root Node
	if len(s.From) == 0 {
		root = &ValuesNode{}
	} else {
		refs := append([]sqlparse.TableRef(nil), s.From...)
		for _, j := range s.Joins {
			refs = append(refs, j.Table)
		}
		p := newPlanner(cat, refs)
		splitConjuncts(s.Where, &p.conjuncts)
		for _, j := range s.Joins {
			splitConjuncts(j.On, &p.conjuncts)
		}
		p.attribute()
		p.requireColumns(s)
		root = p.joinTree(tree)
		// Everything unplaced must resolve (or error) at runtime.
		var leftover []sqlparse.Expr
		for i := range p.conj {
			if !p.conj[i].used {
				leftover = append(leftover, p.conjuncts[i])
			}
		}
		if len(leftover) > 0 {
			root = &FilterNode{Input: root, Conjuncts: leftover,
				Est: filteredEst(root.EstRows(), len(leftover))}
		}
	}
	root = planProjection(s, root)
	tree.Root = root
	if s.AsOf != nil {
		tree.AsOf = s.AsOf.String()
	}
	return tree
}

// planProjection wraps the relational subtree with the SELECT's output
// stages, in executor order below the project root. Two of them fuse with
// what is under them: ORDER BY directly under LIMIT becomes one top-N
// operator, and a LIMIT with nothing but a (filtered) leaf under it tells
// that leaf to stop scanning once it has emitted enough rows.
func planProjection(s *sqlparse.Select, in Node) Node {
	est := in.EstRows()
	if s.Limit > 0 && !s.Distinct && len(s.OrderBy) == 0 && !hasAggregation(s) {
		if l := leafUnder(in); l != nil {
			l.StopAfter = s.Limit
		}
	}
	if hasAggregation(s) {
		if len(s.GroupBy) == 0 {
			est = 1
		} else {
			est = maxf(1, est*filterSelectivity)
		}
		in = &AggregateNode{Input: in, GroupBy: s.GroupBy, Est: est}
	}
	if s.Distinct {
		est = maxf(1, est/2)
		in = &DistinctNode{Input: in, Est: est}
	}
	var keys []sqlparse.Expr
	for _, o := range s.OrderBy {
		keys = append(keys, o.Expr)
	}
	if s.Limit >= 0 && float64(s.Limit) < est {
		est = float64(s.Limit)
	}
	switch {
	case keys != nil && s.Limit >= 0:
		in = &TopNNode{Input: in, Keys: keys, N: s.Limit, Est: est}
	case keys != nil:
		in = &SortNode{Input: in, Keys: keys, Est: est}
	case s.Limit >= 0:
		in = &LimitNode{Input: in, N: s.Limit, Est: est}
	}
	return &ProjectNode{Input: in, Est: est}
}

// leafUnder returns the leaf a relational subtree consists of — the node
// itself or the input of a filter the executor fuses onto it — or nil when
// the subtree is anything more.
func leafUnder(n Node) *Leaf {
	if f, ok := n.(*FilterNode); ok {
		n = f.Input
	}
	switch l := n.(type) {
	case *ScanNode:
		return &l.Leaf
	case *IndexScanNode:
		return &l.Leaf
	}
	return nil
}

// hasAggregation reports whether the SELECT needs the aggregate stage.
func hasAggregation(s *sqlparse.Select) bool {
	if len(s.GroupBy) > 0 || s.Having != nil {
		return true
	}
	for _, it := range s.Items {
		if containsAggregate(it.Expr) {
			return true
		}
	}
	for _, o := range s.OrderBy {
		if containsAggregate(o.Expr) {
			return true
		}
	}
	return false
}

// refInfo is one FROM-clause entry plus its catalog view.
type refInfo struct {
	name  string // effective (aliased) name
	table string // underlying table name
	known bool
	stats TableStats
	cols  map[string]bool
}

// conjInfo is one AND-connected conjunct plus its attribution: which refs
// its columns bind to and whether the binding is provable at plan time.
type conjInfo struct {
	refs   []int // ascending ref indices the conjunct's columns bind to
	ok     bool  // every column reference attributed unambiguously
	hasAgg bool
	used   bool
}

type planner struct {
	cat        Catalog
	refs       []refInfo
	anyUnknown bool
	conjuncts  []sqlparse.Expr
	conj       []conjInfo
	// need[i] is the set of ref i's columns the statement can read; nil
	// (no requireColumns call: DML) leaves every leaf's layout unpruned.
	need []map[string]bool
}

func newPlanner(cat Catalog, refs []sqlparse.TableRef) *planner {
	p := &planner{cat: cat}
	for _, r := range refs {
		ri := refInfo{name: r.EffectiveName(), table: r.Name}
		if cat != nil {
			if st, ok := cat.TableStats(r.Name); ok {
				ri.known = true
				ri.stats = st
				ri.cols = make(map[string]bool, len(st.Columns))
				for _, c := range st.Columns {
					ri.cols[c] = true
				}
			}
		}
		if !ri.known {
			p.anyUnknown = true
		}
		p.refs = append(p.refs, ri)
	}
	return p
}

// attribute resolves every conjunct's column references against the refs.
func (p *planner) attribute() {
	p.conj = make([]conjInfo, len(p.conjuncts))
	for i, c := range p.conjuncts {
		refs, ok := p.attrExpr(c)
		p.conj[i] = conjInfo{
			refs:   refs,
			ok:     ok,
			hasAgg: containsAggregate(c),
		}
	}
}

// attrExpr attributes an expression's column references, returning the
// ascending set of ref indices and whether attribution is provable. A
// qualified reference binds to the matching effective name (for tables
// with known schemas the column must exist); unqualified references bind
// only when exactly one known table has the column and no unknown-schema
// table could shadow it — mirroring the executor's ambiguity rules.
func (p *planner) attrExpr(e sqlparse.Expr) (refs []int, ok bool) {
	seen := map[int]bool{}
	ok = true
	sqlparse.Walk(e, func(x sqlparse.Expr) bool {
		cr, isRef := x.(*sqlparse.ColumnRef)
		if !isRef {
			return true
		}
		i, bound := p.attrRef(cr)
		if !bound {
			ok = false
		} else if !seen[i] {
			seen[i] = true
			refs = append(refs, i)
		}
		return true
	})
	sort.Ints(refs)
	return refs, ok
}

func (p *planner) attrRef(cr *sqlparse.ColumnRef) (int, bool) {
	if cr.Table != "" {
		for i, r := range p.refs {
			if r.name == cr.Table {
				if r.known && !r.cols[cr.Column] {
					return 0, false
				}
				return i, true
			}
		}
		return 0, false
	}
	if p.anyUnknown {
		return 0, false // an unknown-schema table could own the column
	}
	found, n := -1, 0
	for i, r := range p.refs {
		if r.cols[cr.Column] {
			found = i
			n++
		}
	}
	if n != 1 {
		return 0, false // missing or ambiguous: runtime surfaces the error
	}
	return found, true
}

// requireColumns records, for every FROM entry with a known schema, which
// of its columns the SELECT can read — the layout its leaf materializes.
// A reference counts for every table it could bind to, so a name the
// executor must report as ambiguous stays ambiguous in the pruned layouts,
// and one that binds nowhere stays missing. `*` takes a table's whole
// schema but none of its hidden attributes.
func (p *planner) requireColumns(s *sqlparse.Select) {
	p.need = make([]map[string]bool, len(p.refs))
	for i := range p.refs {
		p.need[i] = map[string]bool{}
	}
	for _, it := range s.Items {
		if !it.Star {
			continue
		}
		for i := range p.refs {
			r := &p.refs[i]
			if it.Table != "" && it.Table != r.name {
				continue
			}
			for _, c := range r.stats.Columns[:len(r.stats.Columns)-r.stats.Hidden] {
				p.need[i][c] = true
			}
		}
	}
	sqlparse.StmtExprs(s, func(e sqlparse.Expr) {
		sqlparse.Walk(e, func(x sqlparse.Expr) bool {
			if cr, ok := x.(*sqlparse.ColumnRef); ok {
				for i := range p.refs {
					r := &p.refs[i]
					if (cr.Table == "" || cr.Table == r.name) && r.cols[cr.Column] {
						p.need[i][cr.Column] = true
					}
				}
			}
			return true
		})
	})
}

// leafCols renders ref i's required set in layout order (nil when the
// schema is unknown or no set was computed).
func (p *planner) leafCols(i int) []string {
	r := &p.refs[i]
	if p.need == nil || !r.known {
		return nil
	}
	cols := make([]string, 0, len(p.need[i]))
	for _, c := range r.stats.Columns {
		if p.need[i][c] {
			cols = append(cols, c)
		}
	}
	return cols
}

// leafPlan is one planned FROM entry awaiting join ordering.
type leafPlan struct {
	ref  int
	node Node
	est  float64
}

// joinTree plans every leaf (index selection + pushdown), then joins them
// greedily: start from the smallest estimated leaf and repeatedly attach
// the smallest connected leaf (any leaf if none connects). Single-table
// conjuncts are pushed into their leaf, join-level conjuncts become hash
// join keys or post-join filters as soon as their tables are joined.
func (p *planner) joinTree(tree *Tree) Node {
	leaves := make([]leafPlan, len(p.refs))
	for i := range p.refs {
		var pushed []int
		for ci, c := range p.conj {
			if c.ok && !c.hasAgg && len(c.refs) == 1 && c.refs[0] == i {
				pushed = append(pushed, ci)
			}
		}
		n := p.planLeaf(i, pushed)
		leaves[i] = leafPlan{ref: i, node: n, est: n.EstRows()}
	}
	if len(leaves) == 1 {
		return p.withConstFilters(leaves[0].node)
	}

	remaining := append([]leafPlan(nil), leaves...)
	pick := func(connectedTo map[int]bool) int {
		best := -1
		for i, l := range remaining {
			if connectedTo != nil && !p.connects(connectedTo, l.ref) {
				continue
			}
			if best < 0 || l.est < remaining[best].est {
				best = i
			}
		}
		return best
	}

	var order []int
	first := pick(nil)
	cur := p.withConstFilters(remaining[first].node)
	curEst := cur.EstRows()
	inTree := map[int]bool{remaining[first].ref: true}
	order = append(order, remaining[first].ref)
	remaining = append(remaining[:first], remaining[first+1:]...)

	for len(remaining) > 0 {
		next := pick(inTree)
		cross := next < 0
		if cross {
			next = pick(nil)
		}
		leaf := remaining[next]
		remaining = append(remaining[:next], remaining[next+1:]...)
		order = append(order, leaf.ref)

		var leftKeys, rightKeys []sqlparse.Expr
		for ci := range p.conj {
			l, r, ok := p.equiKey(ci, inTree, leaf.ref)
			if !ok {
				continue
			}
			leftKeys = append(leftKeys, l)
			rightKeys = append(rightKeys, r)
			p.conj[ci].used = true
		}
		inTree[leaf.ref] = true
		if cross || len(leftKeys) == 0 {
			curEst = curEst * leaf.est
		} else {
			curEst = maxf(curEst, leaf.est)
		}
		cur = &HashJoinNode{Left: cur, Right: leaf.node,
			LeftKeys: leftKeys, RightKeys: rightKeys,
			With: p.refs[leaf.ref].name, Est: curEst}

		// Conjuncts whose tables are now all joined apply here.
		var post []sqlparse.Expr
		for ci, c := range p.conj {
			if c.used || !c.ok || c.hasAgg || len(c.refs) == 0 {
				continue
			}
			if p.covered(c.refs, inTree) {
				post = append(post, p.conjuncts[ci])
				p.conj[ci].used = true
			}
		}
		if len(post) > 0 {
			curEst = filteredEst(curEst, len(post))
			cur = &FilterNode{Input: cur, Conjuncts: post, Resolved: true, Est: curEst}
		}
	}

	for i, r := range order {
		if r != i {
			tree.Reordered = true
			mReorderApplied.Inc()
			break
		}
	}
	return cur
}

func (p *planner) covered(refs []int, in map[int]bool) bool {
	for _, r := range refs {
		if !in[r] {
			return false
		}
	}
	return true
}

// connects reports whether some unused equality conjunct joins the current
// tree to leaf.
func (p *planner) connects(inTree map[int]bool, leaf int) bool {
	for ci := range p.conj {
		if _, _, ok := p.equiKey(ci, inTree, leaf); ok {
			return true
		}
	}
	return false
}

// equiKey checks whether conjunct ci has the shape exprL = exprR with one
// side binding entirely in the current tree and the other entirely in the
// candidate leaf, returning tree-aligned and leaf-aligned keys.
func (p *planner) equiKey(ci int, inTree map[int]bool, leaf int) (l, r sqlparse.Expr, ok bool) {
	c := p.conj[ci]
	if c.used || !c.ok || c.hasAgg {
		return nil, nil, false
	}
	be, isBin := p.conjuncts[ci].(*sqlparse.BinaryExpr)
	if !isBin || be.Op != "=" {
		return nil, nil, false
	}
	lr, lok := p.attrExpr(be.Left)
	rr, rok := p.attrExpr(be.Right)
	if !lok || !rok || len(lr) == 0 || len(rr) == 0 {
		return nil, nil, false
	}
	onlyLeaf := func(refs []int) bool { return len(refs) == 1 && refs[0] == leaf }
	switch {
	case p.covered(lr, inTree) && onlyLeaf(rr):
		return be.Left, be.Right, true
	case p.covered(rr, inTree) && onlyLeaf(lr):
		return be.Right, be.Left, true
	}
	return nil, nil, false
}

// withConstFilters attaches column-free conjuncts (e.g. 1 = 1, or an
// EXISTS) to the first leaf.
func (p *planner) withConstFilters(n Node) Node {
	var consts []sqlparse.Expr
	for ci, c := range p.conj {
		if !c.used && c.ok && !c.hasAgg && len(c.refs) == 0 {
			consts = append(consts, p.conjuncts[ci])
			p.conj[ci].used = true
		}
	}
	if len(consts) == 0 {
		return n
	}
	if f, isF := n.(*FilterNode); isF && f.Resolved {
		nf := *f
		nf.Conjuncts = append(append([]sqlparse.Expr(nil), f.Conjuncts...), consts...)
		return &nf
	}
	return &FilterNode{Input: n, Conjuncts: consts, Resolved: true, Est: n.EstRows()}
}

// planLeaf builds the access path for one ref given the pushable conjunct
// indices: the cheapest usable index predicate (equality on hash or
// ordered indexes, ranges on ordered ones, estimated from row counts and
// distinct-key statistics), with every pushed conjunct re-applied as a
// residual filter. Keeping the index predicate's conjunct in the filter is
// deliberate: the index lookup coerces its literal to the column type and
// may return a superset of the SQL-equal rows (e.g. a fractional literal
// probed against an integer column), so the filter re-check is what
// guarantees scan-equivalent semantics.
func (p *planner) planLeaf(ref int, pushed []int) Node {
	ri := &p.refs[ref]
	rows := float64(defaultRows)
	if ri.known {
		rows = float64(ri.stats.Rows)
	}

	var access Node
	if ri.known {
		if isn := p.chooseIndex(ri, rows, pushed); isn != nil {
			isn.Cols = p.leafCols(ref)
			access = isn
			mIndexScans.Inc()
		}
	}
	if access == nil {
		access = &ScanNode{Leaf{Table: ri.table, As: ri.name, Cols: p.leafCols(ref), Est: rows}}
		mFullScans.Inc()
	}
	if len(pushed) > 0 && ri.known {
		exprs := make([]sqlparse.Expr, len(pushed))
		for i, ci := range pushed {
			exprs[i] = p.conjuncts[ci]
			p.conj[ci].used = true
		}
		access = &FilterNode{Input: access, Conjuncts: exprs, Resolved: true,
			Est: filteredEst(access.EstRows(), len(exprs))}
	}
	return access
}

// indexCandidate is one usable (index, predicate) pairing under
// consideration.
type indexCandidate struct {
	node *IndexScanNode
	est  float64
	rank int // 0 = hash equality, 1 = ordered equality, 2 = range
}

// chooseIndex picks the best index predicate for a leaf. Ties break on
// (est, rank, index name) so plans are deterministic.
func (p *planner) chooseIndex(ri *refInfo, rows float64, pushed []int) *IndexScanNode {
	var best *indexCandidate
	better := func(c *indexCandidate) bool {
		if best == nil {
			return true
		}
		if c.est != best.est {
			return c.est < best.est
		}
		if c.rank != best.rank {
			return c.rank < best.rank
		}
		return c.node.Index < best.node.Index
	}
	for _, idx := range ri.stats.Indexes {
		// Equality: col = literal (either side) on the indexed column.
		for _, ci := range pushed {
			key := p.eqLiteral(ci, ri, idx.Column)
			if key == nil {
				continue
			}
			est := maxf(1, rows/float64(max64(1, idx.Distinct)))
			rank := 1
			if idx.Kind == "hash" {
				rank = 0
			}
			c := &indexCandidate{
				node: &IndexScanNode{Leaf: Leaf{Table: ri.table, As: ri.name, Est: est},
					Index: idx.Name, Column: idx.Column, Kind: idx.Kind, Eq: key},
				est: est, rank: rank,
			}
			if better(c) {
				best = c
			}
		}
		if idx.Kind != "ordered" {
			continue
		}
		// Range: the first lower and first upper bound on the column (a
		// non-negated BETWEEN supplies both).
		isn := &IndexScanNode{Leaf: Leaf{Table: ri.table, As: ri.name}, Index: idx.Name,
			Column: idx.Column, Kind: idx.Kind}
		for _, ci := range pushed {
			lo, hi, loIncl, hiIncl, ok := p.rangeBounds(ci, ri, idx.Column)
			if !ok {
				continue
			}
			if lo != nil && isn.Lo == nil {
				isn.Lo, isn.LoIncl = lo, loIncl
			}
			if hi != nil && isn.Hi == nil {
				isn.Hi, isn.HiIncl = hi, hiIncl
			}
		}
		if isn.Lo == nil && isn.Hi == nil {
			continue
		}
		est := maxf(1, rows*filterSelectivity)
		if isn.Lo != nil && isn.Hi != nil {
			est = maxf(1, rows*filterSelectivity*filterSelectivity)
		}
		isn.Est = est
		c := &indexCandidate{node: isn, est: est, rank: 2}
		if better(c) {
			best = c
		}
	}
	if best == nil {
		return nil
	}
	return best.node
}

// eqLiteral returns the literal key if conjunct ci is `col = literal` (or
// flipped) over the given column of this leaf.
func (p *planner) eqLiteral(ci int, ri *refInfo, column string) sqlparse.Expr {
	be, ok := p.conjuncts[ci].(*sqlparse.BinaryExpr)
	if !ok || be.Op != "=" {
		return nil
	}
	if p.isLeafColumn(be.Left, ri, column) {
		if lit := literalExpr(be.Right); lit != nil {
			return lit
		}
	}
	if p.isLeafColumn(be.Right, ri, column) {
		if lit := literalExpr(be.Left); lit != nil {
			return lit
		}
	}
	return nil
}

// rangeBounds extracts an index-usable bound from conjunct ci: a
// comparison between the indexed column and a literal, or a non-negated
// BETWEEN with literal bounds.
func (p *planner) rangeBounds(ci int, ri *refInfo, column string) (lo, hi sqlparse.Expr, loIncl, hiIncl, ok bool) {
	switch e := p.conjuncts[ci].(type) {
	case *sqlparse.BinaryExpr:
		var colLeft bool
		switch {
		case p.isLeafColumn(e.Left, ri, column) && literalExpr(e.Right) != nil:
			colLeft = true
		case p.isLeafColumn(e.Right, ri, column) && literalExpr(e.Left) != nil:
			colLeft = false
		default:
			return nil, nil, false, false, false
		}
		lit := literalExpr(e.Right)
		if !colLeft {
			lit = literalExpr(e.Left)
		}
		op := e.Op
		if !colLeft {
			// literal OP col: flip the comparison around the column.
			switch op {
			case "<":
				op = ">"
			case "<=":
				op = ">="
			case ">":
				op = "<"
			case ">=":
				op = "<="
			}
		}
		switch op {
		case ">":
			return lit, nil, false, false, true
		case ">=":
			return lit, nil, true, false, true
		case "<":
			return nil, lit, false, false, true
		case "<=":
			return nil, lit, false, true, true
		}
		return nil, nil, false, false, false
	case *sqlparse.BetweenExpr:
		if e.Negated || !p.isLeafColumn(e.Expr, ri, column) {
			return nil, nil, false, false, false
		}
		l, h := literalExpr(e.Lo), literalExpr(e.Hi)
		if l == nil || h == nil {
			return nil, nil, false, false, false
		}
		return l, h, true, true, true
	}
	return nil, nil, false, false, false
}

// isLeafColumn reports whether e is a column reference to this leaf's
// given column.
func (p *planner) isLeafColumn(e sqlparse.Expr, ri *refInfo, column string) bool {
	cr, ok := e.(*sqlparse.ColumnRef)
	if !ok || cr.Column != column {
		return false
	}
	return cr.Table == "" || cr.Table == ri.name
}

// literalExpr returns e if it is a non-NULL literal, a `?` parameter
// placeholder or a scalar subquery (NULL never matches an index predicate
// under SQL comparison semantics, so the planner leaves it to the filter
// path). A parameter's value, like a subquery's, is unknown at plan time; the
// executor resolves it per execution, and a NULL degrades safely — an
// equality probe on NULL matches nothing, a NULL range bound means unbounded
// with the residual filter re-checking every candidate.
func literalExpr(e sqlparse.Expr) sqlparse.Expr {
	switch x := e.(type) {
	case *sqlparse.Literal:
		if !x.Value.IsNull() {
			return x
		}
	case *sqlparse.Param, *sqlparse.SubqueryExpr:
		return x
	}
	return nil
}

// splitConjuncts flattens a WHERE tree into AND-connected conjuncts.
func splitConjuncts(e sqlparse.Expr, out *[]sqlparse.Expr) {
	if e == nil {
		return
	}
	if be, ok := e.(*sqlparse.BinaryExpr); ok && be.Op == "AND" {
		splitConjuncts(be.Left, out)
		splitConjuncts(be.Right, out)
		return
	}
	*out = append(*out, e)
}

// containsAggregate reports whether the expression contains an aggregate
// call (such conjuncts can never be filters).
func containsAggregate(e sqlparse.Expr) bool {
	found := false
	sqlparse.Walk(e, func(x sqlparse.Expr) bool {
		_, isAgg := x.(*sqlparse.FuncExpr)
		found = found || isAgg
		return !found
	})
	return found
}

func filteredEst(est float64, nconj int) float64 {
	for i := 0; i < nconj; i++ {
		est *= filterSelectivity
	}
	return maxf(1, est)
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
