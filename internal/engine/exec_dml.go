package engine

import (
	"fmt"

	"ldv/internal/plan"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// The write path always runs inside a transaction (the session wraps
// auto-commit DML in an implicit one) while holding the target table's write
// lock. Writes read the *current committed* state rather than the snapshot —
// first-updater-wins: a row already modified by a concurrent uncommitted
// transaction raises a serialization error instead of silently producing a
// lost update.

// execInsert handles INSERT ... VALUES and INSERT ... SELECT. Produced tuple
// versions are stamped with the executing process and statement so that
// packaging can exclude application-created tuples (§II of the paper).
func (ec *stmtCtx) execInsert(s *sqlparse.Insert, tree *plan.Tree, opts ExecOptions, res *Result) error {
	t, err := ec.table(s.Table)
	if err != nil {
		return err
	}

	// Map the statement's column list onto schema positions.
	colIdx := make([]int, 0, len(t.Schema.Columns))
	if s.Columns == nil {
		for i := range t.Schema.Columns {
			colIdx = append(colIdx, i)
		}
	} else {
		for _, name := range s.Columns {
			i := t.Schema.ColumnIndex(name)
			if i < 0 {
				return fmt.Errorf("table %q has no column %q", s.Table, name)
			}
			colIdx = append(colIdx, i)
		}
	}

	var inputRows [][]sqlval.Value
	var reads []vid
	if s.Query != nil {
		// INSERT ... SELECT reads the query's lineage (reenactment-style).
		_, rows, lineage, err := ec.query(tree)
		if err != nil {
			return err
		}
		inputRows = rows
		if ec.lin != nil {
			reads = ec.lin.union(nil, lineage...)
		}
	} else {
		// VALUES expressions may hold subqueries too, e.g.
		// INSERT INTO t VALUES ((SELECT MAX(a) FROM t) + 1).
		if err := ec.runInit(tree, &reads); err != nil {
			return err
		}
		for _, rowExprs := range s.Rows {
			row := make([]sqlval.Value, len(rowExprs))
			for i, e := range rowExprs {
				if row[i], err = evalConst(e, &ec.vals); err != nil {
					return err
				}
			}
			inputRows = append(inputRows, row)
		}
	}

	for _, in := range inputRows {
		if len(in) != len(colIdx) {
			return fmt.Errorf("INSERT into %q: %d values for %d columns", s.Table, len(in), len(colIdx))
		}
		vals := make([]sqlval.Value, len(t.Schema.Columns))
		for i, slot := range colIdx {
			vals[slot] = in[i]
		}
		r := &storedRow{
			id:      ec.db.newRowID(),
			vals:    vals,
			version: ec.db.clock.Tick(),
			proc:    opts.Proc,
			stmt:    res.StmtID,
			txnID:   ec.txn.id,
		}
		if err := t.insertRow(r); err != nil {
			return err
		}
		ec.txn.logUndo(t, undoInsert(t, r))
		ec.txn.logRedo(redoInsertEntry(s.Table, r))
		res.WrittenRefs = append(res.WrittenRefs, r.ref(s.Table))
		res.RowsAffected++
	}
	if ec.lin != nil {
		ec.lin.finish(res, nil, reads)
	}
	return nil
}

// redoInsertEntry captures a freshly inserted version's immutable fields
// for the transaction's WAL record.
func redoInsertEntry(table string, r *storedRow) redoEntry {
	return redoEntry{
		kind: walInsert, table: table,
		id: r.id, version: r.version, proc: r.proc, stmt: r.stmt, vals: r.vals,
	}
}

// execUpdate applies an UPDATE. Provenance is captured by reenactment: the
// pre-update tuple versions are recorded (ReadRefs) *before* the
// modification is applied, mirroring GProM's retrieve-then-execute strategy
// (§VII-B of the paper). Each modified row version is end-marked and a
// successor version appended.
func (ec *stmtCtx) execUpdate(s *sqlparse.Update, tree *plan.Tree, opts ExecOptions, res *Result) error {
	t, err := ec.table(s.Table)
	if err != nil {
		return err
	}
	var reads []vid // what the subqueries read, then the matched versions
	if err := ec.runInit(tree, &reads); err != nil {
		return err
	}
	lay, matches, err := ec.matchRows(t, tree.Root.(*plan.UpdateNode).Access)
	if err != nil {
		return err
	}

	// Validate SET column names and bind the assigned expressions up front.
	setIdx := make([]int, len(s.Set))
	setExprs := make([]bound, len(s.Set))
	for i, a := range s.Set {
		idx := t.Schema.ColumnIndex(a.Column)
		if idx < 0 {
			return fmt.Errorf("table %q has no column %q", s.Table, a.Column)
		}
		setIdx[i] = idx
		if setExprs[i], err = lay.bind(a.Expr); err != nil {
			return err
		}
	}

	// Reenactment: the pre-update versions, values included, are the
	// statement's input. A version is never modified in place — it stays
	// addressable, superseded — so recording which ones matched is enough.
	if ec.lin != nil {
		reads = ec.lin.addReads(reads, t, matches)
		t.touch() // for the prov_usedby stamps below, whatever else the loop gets to
	}
	pk := t.Schema.PrimaryKeyIndex()
	for _, r := range matches {
		if ec.lin != nil {
			r.usedBy.Store(res.StmtID)
		}
		newVals := append([]sqlval.Value(nil), r.vals...)
		old := lay.vals(r)
		for i, set := range setExprs {
			v, err := set(old, nil)
			if err != nil {
				return err
			}
			v, err = checkValue(t.Schema.Columns[setIdx[i]], v)
			if err != nil {
				return err
			}
			newVals[setIdx[i]] = v
		}
		nv := &storedRow{
			id:      r.id,
			vals:    newVals,
			version: ec.db.clock.Tick(),
			proc:    opts.Proc,
			stmt:    res.StmtID,
			txnID:   ec.txn.id,
		}
		// Keep the pk index pointing at the live latest version; all checks
		// precede any mutation so an error leaves this row untouched.
		if pk >= 0 {
			oldKey := keyOf(r.vals[pk])
			newKey := keyOf(newVals[pk])
			if newKey != oldKey {
				if _, dup := t.pkIndex[newKey]; dup {
					return fmt.Errorf("table %s: duplicate primary key %s", s.Table, newVals[pk])
				}
				delete(t.pkIndex, oldKey)
			}
			t.pkIndex[newKey] = nv
		}
		t.setEnd(r, nv.version, ec.txn.id)
		t.appendLive(nv)
		ec.txn.logUndo(t, undoUpdate(t, r, nv))
		ec.txn.logRedo(redoEntry{kind: walEnd, table: s.Table, id: r.id, version: r.version, end: r.end})
		ec.txn.logRedo(redoInsertEntry(s.Table, nv))
		res.WrittenRefs = append(res.WrittenRefs, nv.ref(s.Table))
		res.RowsAffected++
	}
	if ec.lin != nil {
		ec.lin.finish(res, nil, reads)
	}
	return nil
}

// execDelete end-marks matching row versions, recording them as reads (a
// delete's provenance is the tuples it consumed).
func (ec *stmtCtx) execDelete(s *sqlparse.Delete, tree *plan.Tree, opts ExecOptions, res *Result) error {
	t, err := ec.table(s.Table)
	if err != nil {
		return err
	}
	var reads []vid
	if err := ec.runInit(tree, &reads); err != nil {
		return err
	}
	_, matches, err := ec.matchRows(t, tree.Root.(*plan.DeleteNode).Access)
	if err != nil {
		return err
	}
	if ec.lin != nil {
		reads = ec.lin.addReads(reads, t, matches)
	}
	pk := t.Schema.PrimaryKeyIndex()
	for _, r := range matches {
		t.setEnd(r, ec.db.clock.Tick(), ec.txn.id)
		if pk >= 0 {
			key := keyOf(r.vals[pk])
			if t.pkIndex[key] == r {
				delete(t.pkIndex, key)
			}
		}
		ec.txn.logUndo(t, undoDelete(t, r))
		ec.txn.logRedo(redoEntry{kind: walEnd, table: s.Table, id: r.id, version: r.version, end: r.end})
		res.RowsAffected++
	}
	if ec.lin != nil {
		ec.lin.finish(res, nil, reads)
	}
	return nil
}

// matchRows runs an UPDATE's or DELETE's access subtree — the WHERE clause
// as the planner lowered it — over the current committed state of a table
// (plus the transaction's own writes) and returns the matching live
// versions, with the stored layout the caller can bind further expressions
// against. It is the scan leaf under the DML visibility rule: a matching
// row end-marked by a concurrent uncommitted transaction is a write-write
// conflict — first-updater-wins, the later writer errors out.
//
// The access path comes from the planner: when an index predicate applies,
// only the candidate versions in the matching buckets are considered.
// Because an index holds *every* version carrying a key (end-marked ones
// included) and every conjunct of the WHERE clause is still evaluated on
// each candidate, both the match set and the conflict detection are exactly
// what a full scan would produce.
func (ec *stmtCtx) matchRows(t *Table, access plan.Node) (*storedLayout, []*storedRow, error) {
	sc, err := ec.openScan(access)
	if err != nil {
		return nil, nil, err
	}
	self := ec.txn.id
	visible := func(r *storedRow) bool {
		if r.txnID != self && ec.db.txnActive(r.txnID) {
			return false // uncommitted insert of another transaction
		}
		// An end mark hides the version once it is final — set by this
		// transaction or by a committed one. Set by a concurrent
		// uncommitted transaction it leaves the version in play: a conflict
		// if it matches.
		return r.end == 0 || r.endTxn != self && ec.db.txnActive(r.endTxn)
	}
	var matches []*storedRow
	err = ec.run(sc, visible, func(r *storedRow) (bool, error) {
		if r.end != 0 {
			return false, fmt.Errorf("could not serialize access due to concurrent update on table %s", t.Name)
		}
		matches = append(matches, r)
		return true, nil
	})
	return sc.lay, matches, err
}
