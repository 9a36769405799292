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
// lands in file-granularity packages). Records are CSV; NULL is \N.

// copyNull is the record representation of SQL NULL (PostgreSQL's \N).
const copyNull = `\N`

// execCopy runs COPY table FROM/TO 'path' into res.
func (s *Session) execCopy(cp *sqlparse.Copy, opts ExecOptions, res *Result) error {
	fs := opts.FS
	if fs == nil {
		return fmt.Errorf("COPY needs a filesystem, and this execution was given none (ExecOptions.FS); a server passes its own")
	}
	if cp.To {
		records, err := s.copyTo(cp.Table, opts, res)
		if err != nil {
			return err
		}
		var data []byte
		for _, rec := range records {
			for i, field := range rec {
				if i > 0 {
					data = append(data, ',')
				}
				start := len(data)
				data = csvrec.Quote(append(data, field...), start)
			}
			data = append(data, '\n')
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
	r := csvrec.Reader{Data: data}
	var records [][]string
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("COPY FROM %s: record %d: %w", cp.Path, len(records)+1, err)
		}
		records = append(records, append([]string(nil), rec...))
	}
	return s.copyFrom(cp.Table, records, opts, res)
}

// copyFrom bulk-loads text records into a table, coercing each field by
// the column's declared type. Rows are stamped like INSERTs (the calling
// process and statement own them); like DML, the load runs inside the
// session's open transaction or an implicit one, so a failed load leaves
// nothing behind and a concurrent snapshot never sees a torn load.
func (s *Session) copyFrom(table string, records [][]string, opts ExecOptions, res *Result) error {
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
		for ln, rec := range records {
			if len(rec) != len(t.Schema.Columns) {
				return fmt.Errorf("COPY %s: record %d has %d fields, want %d",
					table, ln+1, len(rec), len(t.Schema.Columns))
			}
			vals := make([]sqlval.Value, len(rec))
			for i, field := range rec {
				v, err := parseCopyField(t.Schema.Columns[i], field)
				if err != nil {
					return fmt.Errorf("COPY %s record %d: %w", table, ln+1, err)
				}
				vals[i] = v
			}
			r := &storedRow{
				id:      db.newRowID(),
				vals:    vals,
				version: db.clock.Tick(),
				proc:    opts.Proc,
				stmt:    res.StmtID,
				txnID:   txn.id,
			}
			if err := t.insertRow(r); err != nil {
				return fmt.Errorf("COPY %s record %d: %w", table, ln+1, err)
			}
			txn.logUndo(t, undoInsert(t, r))
			txn.logRedo(redoInsertEntry(table, r))
			res.WrittenRefs = append(res.WrittenRefs, r.ref(table))
			res.RowsAffected++
		}
		return nil
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

// copyTo dumps the snapshot-visible rows of a table as text records in row
// order (the session's transaction snapshot, or a fresh cut).
func (s *Session) copyTo(table string, opts ExecOptions, res *Result) ([][]string, error) {
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
	records := make([][]string, 0, len(t.rows))
	var read []*storedRow
	for _, r := range t.rows {
		if !snap.visible(r) {
			continue
		}
		rec := make([]string, len(r.vals))
		for i, v := range r.vals {
			if v.IsNull() {
				rec[i] = copyNull
			} else {
				rec[i] = v.String()
			}
		}
		records = append(records, rec)
		if opts.WithLineage {
			read = append(read, r)
			r.usedBy.Store(res.StmtID)
		}
		res.RowsAffected++
	}
	t.mu.RUnlock()
	if opts.WithLineage {
		t.touch() // after the last prov_usedby stamp
		lin := &lineageSink{stmt: res.StmtID}
		lin.finish(res, nil, lin.addReads(nil, t, read))
	}
	return records, nil
}

// parseCopyField coerces one text field to the column's type.
func parseCopyField(c Column, field string) (sqlval.Value, error) {
	if field == copyNull {
		return sqlval.Null, nil
	}
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
