package engine

import (
	"fmt"

	"ldv/internal/plan"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Every base-table access — the leaves of a SELECT, the row matcher of
// UPDATE and DELETE — is one routine: walk a row source (the table's heap
// or an index's candidates), skip the versions a visibility rule hides, run
// the conjuncts of the filter the plan put directly above the leaf against
// the *stored* values, and hand each survivor to the caller. Nothing is
// copied for a version that is invisible or filtered out.

// storedLayout is a table's stored tuple layout — the schema's columns,
// then the hidden provenance attributes — under one effective name.
// Expressions bound against it evaluate straight off storedRow.vals; the
// hidden attributes are laid out behind them (into one reused buffer) only
// when a bound expression names one.
type storedLayout struct {
	env    env
	ncols  int
	hidden bool // some bound expression reads a prov_* attribute
	buf    []sqlval.Value
}

func newStoredLayout(cols []Column, as string, vals *execVals) *storedLayout {
	l := &storedLayout{ncols: len(cols)}
	l.env.vals = vals
	l.env.bindings = make([]binding, 0, len(cols)+len(provColumns))
	for _, c := range cols {
		l.env.bindings = append(l.env.bindings, binding{table: as, name: c.Name})
	}
	for _, pc := range provColumns {
		l.env.bindings = append(l.env.bindings, binding{table: as, name: pc})
	}
	return l
}

func (l *storedLayout) bind(ex sqlparse.Expr) (bound, error) {
	sqlparse.Walk(ex, func(x sqlparse.Expr) bool {
		if cr, ok := x.(*sqlparse.ColumnRef); ok && IsProvColumn(cr.Column) {
			l.hidden = true
		}
		return true
	})
	return l.env.bind(ex, nil)
}

// vals lays r out for the bound expressions. The result is valid until the
// next call.
func (l *storedLayout) vals(r *storedRow) []sqlval.Value {
	if !l.hidden {
		return r.vals
	}
	l.buf = append(l.buf[:0], r.vals...)
	for k := range provColumns {
		l.buf = append(l.buf, r.prov(k))
	}
	return l.buf
}

// prov returns the row's k-th hidden provenance attribute, in provColumns
// order.
func (r *storedRow) prov(k int) sqlval.Value {
	switch k {
	case 0:
		return sqlval.NewInt(int64(r.id))
	case 1:
		return sqlval.NewInt(int64(r.version))
	case 2:
		return sqlval.NewString(r.proc)
	default:
		return sqlval.NewInt(r.usedBy.Load())
	}
}

// leafScan is an opened plan leaf: the versions to walk, the stored layout,
// and the fused filter's conjuncts bound against it.
type leafScan struct {
	node   plan.Node        // the ScanNode or IndexScanNode
	leaf   *plan.Leaf       // its shared part
	filter *plan.FilterNode // the filter fused onto it; nil when the leaf is bare
	table  *Table           // nil for a system view: no lineage, nothing to stamp
	rows   []*storedRow
	lay    *storedLayout
	preds  []bound
}

// openScan resolves a leaf, or a filter directly over one, to its row
// source and binds the filter. Unknown table names fall back to the
// system-view registry: virtual tables never appear in the lock footprint
// (lockTables skips unresolved names) and take no locks of their own.
func (ec *stmtCtx) openScan(n plan.Node) (*leafScan, error) {
	sc := &leafScan{}
	if f, ok := n.(*plan.FilterNode); ok {
		sc.filter, n = f, f.Input
	}
	sc.node = n
	var isn *plan.IndexScanNode
	switch l := n.(type) {
	case *plan.ScanNode:
		sc.leaf = &l.Leaf
	case *plan.IndexScanNode:
		sc.leaf, isn = &l.Leaf, l
	default:
		return nil, fmt.Errorf("unsupported plan leaf %T", n)
	}
	var cols []Column
	if t, err := ec.table(sc.leaf.Table); err == nil {
		sc.table, sc.rows, cols = t, t.rows, t.Schema.Columns
		if isn != nil {
			// A vanished index is impossible while the statement holds the
			// table lock; walking the heap instead is always equivalent.
			if ix := t.findIndex(isn.Index); ix != nil {
				sc.rows = indexCandidates(ix, isn, &ec.vals)
				ix.scans.Add(1)
			}
		}
	} else if vt := ec.db.virtualTable(sc.leaf.Table); vt != nil {
		sc.rows, cols = vt.storedRows(), vt.Schema.Columns
	} else {
		return nil, err
	}
	sc.lay = newStoredLayout(cols, sc.leaf.As, &ec.vals)
	if sc.filter != nil {
		sc.preds = make([]bound, len(sc.filter.Conjuncts))
		for i, c := range sc.filter.Conjuncts {
			p, err := sc.lay.bind(c)
			if err != nil {
				return nil, err
			}
			sc.preds[i] = p
		}
	}
	return sc, nil
}

// run walks the source. visible is the statement's visibility rule; emit
// receives each version that is visible and passes every conjunct, and
// returns false to end the scan early. A predicate that fails to evaluate
// fails the statement. engine.rows_scanned counts every version walked;
// EXPLAIN ANALYZE keeps one row per plan node — the leaf reports the
// visible versions it examined, the fused filter the survivors.
func (ec *stmtCtx) run(sc *leafScan, visible func(*storedRow) bool, emit func(*storedRow) (more bool, err error)) error {
	emitted := 0
	scan := func() (examined int, err error) {
		walked := 0
		defer func() { mRowsScanned.Add(int64(walked)) }()
	rows:
		for _, r := range sc.rows {
			walked++
			if !visible(r) {
				continue
			}
			examined++
			if len(sc.preds) > 0 {
				vals := sc.lay.vals(r)
				for _, p := range sc.preds {
					v, err := p(vals, nil)
					if err != nil {
						return examined, err
					}
					if !isTrue(v) {
						continue rows
					}
				}
			}
			emitted++
			if more, err := emit(r); err != nil || !more {
				return examined, err
			}
		}
		return examined, nil
	}
	if sc.filter == nil {
		return ec.ops.node(sc.node, scan)
	}
	return ec.ops.node(sc.filter, func() (int, error) {
		err := ec.ops.node(sc.node, scan)
		return emitted, err
	})
}

// execLeaf materializes a SELECT leaf under the statement's snapshot: the
// survivors of the fused filter, laid out as the columns the plan says the
// statement reads (every column and hidden attribute when it names none),
// all qualified by the effective table name. In lineage mode each emitted
// tuple starts with itself — the vid the sink gives the stored version — as
// lineage, and the scan stamps prov_usedby on every visible version it
// examines — the versioning write the paper charges to audit overhead
// (§IX-B). The stamp is atomic because the scan holds only the table's read
// lock.
func (ec *stmtCtx) execLeaf(n plan.Node) (relation, error) {
	sc, err := ec.openScan(n)
	if err != nil {
		return relation{}, err
	}
	stored := sc.lay.env.bindings
	rel := relation{env: env{bindings: stored, vals: &ec.vals}}
	from := make([]int, len(stored)) // stored slot of each emitted column
	for i := range from {
		from[i] = i
	}
	if cols := sc.leaf.Cols; cols != nil {
		rel.env.bindings, from = make([]binding, len(cols)), from[:len(cols)]
		for i, name := range cols {
			from[i], err = sc.lay.env.resolve(&sqlparse.ColumnRef{Column: name})
			if err != nil {
				return relation{}, err
			}
			rel.env.bindings[i] = stored[from[i]]
		}
	}
	lin := ec.lin
	if sc.table == nil {
		lin = nil
	}
	visible := ec.snap.visible
	if lin != nil {
		defer sc.table.touch() // once the last stamp is in, however the scan ends
		visible = func(r *storedRow) bool {
			if !ec.snap.visible(r) {
				return false
			}
			r.usedBy.Store(lin.stmt)
			return true
		}
	}
	ncols, stop := sc.lay.ncols, sc.leaf.StopAfter
	// Size the output by the planner's estimate (never past the source or
	// the stop) rather than growing it from nothing.
	hint := sc.leaf.Est
	if sc.filter != nil {
		hint = sc.filter.Est
	}
	hint = min(hint, float64(len(sc.rows)))
	if stop > 0 {
		hint = min(hint, float64(stop))
	}
	rel.tuples = make([]tuple, 0, int(hint))
	var known map[*storedRow]vid
	if lin != nil {
		known = lin.openLeaf(sc.table, int(hint))
	}
	var vals slab[sqlval.Value]
	var ids slab[vid]
	err = ec.run(sc, visible, func(r *storedRow) (bool, error) {
		tp := tuple{vals: vals.take(len(from))}
		for i, s := range from {
			if s < ncols {
				tp.vals[i] = r.vals[s]
			} else {
				tp.vals[i] = r.prov(s - ncols)
			}
		}
		if lin != nil {
			tp.lineage = ids.take(1)
			tp.lineage[0] = lin.add(known, sc.table, r)
		}
		rel.tuples = append(rel.tuples, tp)
		return len(rel.tuples) != stop, nil
	})
	return rel, err
}
