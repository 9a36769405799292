package engine

import (
	"fmt"
	"io"
	"strconv"

	"ldv/internal/csvrec"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Bulk transfer (COPY) — the "standard bulk copy and DB dump utilities" the
// paper's applications are assumed to use (§II). COPY is a statement like any
// other (Session.execute); the file it names is read or written through the
// filesystem the execution was handed (ExecOptions.FS) — the server passes
// its own, so the access is attributed to the server process (and therefore
// lands in file-granularity packages). Records are CSV (internal/csvrec);
// NULL is an unquoted \N.

// execCopy runs COPY table FROM/TO 'path' into res.
func (s *Session) execCopy(cp *sqlparse.Copy, opts ExecOptions, res *Result) error {
	fs := opts.FS
	if fs == nil {
		return fmt.Errorf("COPY needs a filesystem, and this execution was given none (ExecOptions.FS); a server passes its own")
	}
	if cp.To {
		data, err := s.copyTo(cp.Table, opts, res)
		if err != nil {
			return err
		}
		if err := fs.WriteFile(cp.Path, data); err != nil {
			return fmt.Errorf("COPY TO %s: %w", cp.Path, err)
		}
		return nil
	}
	data, err := fs.ReadFile(cp.Path)
	if err != nil {
		return fmt.Errorf("COPY FROM %s: %w", cp.Path, err)
	}
	return s.copyFrom(cp.Table, &csvrec.Reader{Data: data}, opts, res)
}

// copyFrom bulk-loads the records r holds into a table, coercing each field
// by the column's declared type. Rows are stamped like INSERTs (the calling
// process and statement own them); like DML, the load runs inside the
// session's open transaction or an implicit one, so a failed load leaves
// nothing behind and a concurrent snapshot never sees a torn load.
func (s *Session) copyFrom(table string, r *csvrec.Reader, opts ExecOptions, res *Result) error {
	db := s.db
	t, err := db.lookupTable(table)
	if err != nil {
		return err
	}
	txn := s.txn
	implicit := txn == nil
	if implicit {
		txn = db.beginTxn()
	}
	mark := len(txn.undo)
	rmark := len(txn.redo)
	t.mu.Lock()
	err = func() error {
		for ln := 1; ; ln++ {
			rec, err := r.Read()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return fmt.Errorf("COPY %s: record %d: %w", table, ln, err)
			}
			if len(rec) != len(t.Schema.Columns) {
				return fmt.Errorf("COPY %s: record %d has %d fields, want %d",
					table, ln, len(rec), len(t.Schema.Columns))
			}
			vals := make([]sqlval.Value, len(rec))
			for i, field := range rec {
				if field == csvrec.Null && !r.Quoted(i) {
					continue // vals[i] is NULL
				}
				if vals[i], err = parseCopyField(t.Schema.Columns[i], field); err != nil {
					return fmt.Errorf("COPY %s record %d: %w", table, ln, err)
				}
			}
			row := &storedRow{
				id:      db.newRowID(),
				vals:    vals,
				version: db.clock.Tick(),
				proc:    opts.Proc,
				stmt:    res.StmtID,
				txnID:   txn.id,
			}
			if err := t.insertRow(row); err != nil {
				return fmt.Errorf("COPY %s record %d: %w", table, ln, err)
			}
			txn.logUndo(t, undoInsert(t, row))
			txn.logRedo(redoInsertEntry(table, row))
			res.WrittenRefs = append(res.WrittenRefs, row.ref(table))
			res.RowsAffected++
		}
	}()
	if err != nil {
		if uerr := txn.undoFrom(mark); uerr != nil {
			err = fmt.Errorf("%w (statement %v)", uerr, err)
		}
		txn.redo = txn.redo[:rmark]
	}
	t.mu.Unlock()
	if implicit {
		if err != nil {
			db.endTxn(txn.id)
			return err
		}
		res.CommitSeq, err = db.commitTxn(txn, opts.Span, s.ws)
	}
	return err
}

// copyTo dumps the snapshot-visible rows of a table as CSV records in row
// order (the session's transaction snapshot, or a fresh cut).
func (s *Session) copyTo(table string, opts ExecOptions, res *Result) ([]byte, error) {
	db := s.db
	t, err := db.lookupTable(table)
	if err != nil {
		return nil, err
	}
	var snap snapshot
	if s.txn != nil {
		snap = s.txn.snap
	} else {
		snap = db.takeSnapshot(0)
	}
	t.mu.RLock()
	var data []byte
	var read []*storedRow
	for _, r := range t.rows {
		if !snap.visible(r) {
			continue
		}
		for i, v := range r.vals {
			if i > 0 {
				data = append(data, ',')
			}
			if v.IsNull() {
				data = append(data, csvrec.Null...)
			} else {
				start := len(data)
				data = csvrec.Quote(append(data, v.String()...), start)
			}
		}
		data = append(data, '\n')
		if opts.WithLineage {
			read = append(read, r)
			r.usedBy.Store(res.StmtID)
		}
		res.RowsAffected++
	}
	t.mu.RUnlock()
	if opts.WithLineage {
		t.stamped() // after the last prov_usedby stamp
		lin := &lineageSink{stmt: res.StmtID}
		lin.finish(res, nil, lin.addReads(nil, t, read))
	}
	return data, nil
}

// parseCopyField coerces one text field to the column's type.
func parseCopyField(c Column, field string) (sqlval.Value, error) {
	switch c.Type {
	case sqlval.KindInt:
		n, err := strconv.ParseInt(field, 10, 64)
		if err != nil {
			return sqlval.Null, fmt.Errorf("column %s: bad integer %q", c.Name, field)
		}
		return sqlval.NewInt(n), nil
	case sqlval.KindFloat:
		f, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return sqlval.Null, fmt.Errorf("column %s: bad float %q", c.Name, field)
		}
		return sqlval.NewFloat(f), nil
	case sqlval.KindBool:
		switch field {
		case "true", "t", "1":
			return sqlval.NewBool(true), nil
		case "false", "f", "0":
			return sqlval.NewBool(false), nil
		}
		return sqlval.Null, fmt.Errorf("column %s: bad boolean %q", c.Name, field)
	case sqlval.KindDate:
		v, err := sqlval.ParseDate(field)
		if err != nil {
			return sqlval.Null, fmt.Errorf("column %s: %w", c.Name, err)
		}
		return v, nil
	default:
		return sqlval.NewString(field), nil
	}
}
