package engine

// Transactions are implemented with an in-memory undo log over the MVCC
// store: each DML statement appends compensating actions that rollback
// applies in reverse order while holding the write locks of the affected
// tables. Because an UPDATE appends a new version and end-marks the old one
// (never mutating values in place), every compensation is structural —
// remove the new version, clear the end mark — and a rolled-back version
// vanishes entirely, which is why "committed" can be defined as "writer no
// longer in the active set" without a commit log.

// undoInsert removes an inserted version.
func undoInsert(t *Table, r *storedRow) func() error {
	return func() error {
		return t.removeRow(r)
	}
}

// undoUpdate removes the successor version and revives the old one.
func undoUpdate(t *Table, old, successor *storedRow) func() error {
	return func() error {
		if err := t.removeRow(successor); err != nil {
			return err
		}
		return t.clearEnd(old)
	}
}

// undoDelete clears a delete's end mark.
func undoDelete(t *Table, r *storedRow) func() error {
	return func() error { return t.clearEnd(r) }
}
