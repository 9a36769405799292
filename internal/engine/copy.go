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
// paper's applications are assumed to use (§II). COPY meets the data the way
// the statements it stands for do: COPY FROM is an INSERT (Session.execute
// sends it down execDMLStmt; each record takes INSERT's per-row step), COPY
// TO is SELECT * (execSelectStmt, its snapshot, leaf and lineage). The file
// it names is read or written through the filesystem the execution was
// handed (ExecOptions.FS) — the server passes its own, so the access is
// attributed to the server process (and therefore lands in file-granularity
// packages). Records are CSV (internal/csvrec); NULL is an unquoted \N.

// execCopyFrom loads the records of the file a COPY FROM names into its
// table, coercing each field by the column's declared type.
func (ec *stmtCtx) execCopyFrom(cp *sqlparse.Copy, opts ExecOptions, res *Result) error {
	t, err := ec.table(cp.Table)
	if err != nil {
		return err
	}
	data, err := opts.FS.ReadFile(cp.Path)
	if err != nil {
		return fmt.Errorf("COPY FROM %s: %w", cp.Path, err)
	}
	r := &csvrec.Reader{Data: data}
	for ln := 1; ; ln++ {
		rec, err := r.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("COPY %s: record %d: %w", cp.Table, ln, err)
		}
		if len(rec) != len(t.Schema.Columns) {
			return fmt.Errorf("COPY %s: record %d has %d fields, want %d",
				cp.Table, ln, len(rec), len(t.Schema.Columns))
		}
		vals := make([]sqlval.Value, len(rec))
		for i, field := range rec {
			if field == csvrec.Null && !r.Quoted(i) {
				continue // vals[i] is NULL
			}
			if vals[i], err = parseCopyField(t.Schema.Columns[i], field); err != nil {
				return fmt.Errorf("COPY %s record %d: %w", cp.Table, ln, err)
			}
		}
		if err := ec.insertVersion(t, vals, opts, res); err != nil {
			return fmt.Errorf("COPY %s record %d: %w", cp.Table, ln, err)
		}
	}
}

// execCopyTo writes what SELECT * FROM the table reads as CSV records, in
// row order. The result is a write's: RowsAffected counts the records,
// TupleValues holds the versions read, and no rows come back.
func (s *Session) execCopyTo(cp *sqlparse.Copy, opts ExecOptions, res *Result) error {
	if err := s.execSelectStmt(dryRunSelect(cp.Table, nil), opts, res, nil); err != nil {
		return err
	}
	var data []byte
	for _, row := range res.Rows {
		for i, v := range row {
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
	}
	res.RowsAffected = len(res.Rows)
	res.Columns, res.Rows, res.Lineage = nil, nil, nil
	if err := opts.FS.WriteFile(cp.Path, data); err != nil {
		return fmt.Errorf("COPY TO %s: %w", cp.Path, err)
	}
	return nil
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
