package ldv

import (
	"bytes"
	"fmt"
	"strings"

	"ldv/internal/bin"
	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

// SessionLog records one client session's DB interactions in order — the
// materialized query results a server-excluded package replays (§VII-D,
// §VIII).
type SessionLog struct {
	// Proc is the recording process's trace node ID (informational; replay
	// matches sessions by open order, since PIDs repeat deterministically).
	Proc    string
	Entries []LogEntry
}

// LogEntry is one recorded statement with its full response, in the values
// the wire delivered. Args are the values an execution of a prepared
// statement bound to SQL's `?` placeholders (none for a text statement).
// TraceID, when present, is the hex obs request-trace identity of the
// recorded execution, linking the replay log back to the flight recorder and
// provenance edges.
type LogEntry struct {
	SQL          string
	Args         []sqlval.Value
	TraceID      string
	Columns      []string
	Rows         [][]sqlval.Value
	RowsAffected int
	Error        string
}

// describeStatement renders a statement for people: its SQL, then the values
// bound to it, if any, as a trailing comment of SQL literals.
func describeStatement(sql string, args []sqlval.Value) string {
	if len(args) == 0 {
		return sql
	}
	lits := make([]string, len(args))
	for i, v := range args {
		lits[i] = v.SQLLiteral()
	}
	return sql + " -- " + strings.Join(lits, ", ")
}

// dbLogMagic opens the DB log member (DESIGN.md "Binary encodings").
const dbLogMagic = "LDVLOG1\n"

// MarshalDBLog serializes session logs for package inclusion: the magic, the
// session count, then per session its Proc and entry count, and per entry
// its SQL, its args as one row, trace id, error, rows affected, the column
// names, and the row count followed by each row — values in the sqlval row
// codec the wire and the table files use.
func MarshalDBLog(sessions []*SessionLog) []byte {
	return bin.Encode(0, func(w *bin.Writer) {
		w.Fixed([]byte(dbLogMagic))
		w.Uvarint(uint64(len(sessions)))
		for _, s := range sessions {
			w.Str(s.Proc)
			w.Uvarint(uint64(len(s.Entries)))
			for i := range s.Entries {
				e := &s.Entries[i]
				w.Str(e.SQL)
				sqlval.WriteRow(w, e.Args)
				w.Str(e.TraceID)
				w.Str(e.Error)
				w.Uvarint(uint64(e.RowsAffected))
				w.Uvarint(uint64(len(e.Columns)))
				for _, c := range e.Columns {
					w.Str(c)
				}
				w.Uvarint(uint64(len(e.Rows)))
				for _, row := range e.Rows {
					sqlval.WriteRow(w, row)
				}
			}
		}
	})
}

// UnmarshalDBLog parses a log MarshalDBLog wrote — and only that: every
// count is checked against the bytes left before anything is sized from it,
// a row must have one value per column, and nothing may trail, so an
// accepted log marshals back to its input. TEXT values and strings are
// substrings of one copy of data.
func UnmarshalDBLog(data []byte) ([]*SessionLog, error) {
	if !bytes.HasPrefix(data, []byte(dbLogMagic)) {
		return nil, fmt.Errorf("db log: bad magic")
	}
	r := bin.NewTextReader(data[len(dbLogMagic):])
	n := r.Count("session", 2) // Proc, entry count
	sessions := bin.Make[*SessionLog](n, r.Len())
	for ; n > 0 && r.Err() == nil; n-- {
		s := &SessionLog{Proc: r.Str()}
		m := r.Count("entry", 7) // SQL, args, trace id, error, rows affected, column and row counts
		s.Entries = bin.Make[LogEntry](m, r.Len())
		for ; m > 0 && r.Err() == nil; m-- {
			s.Entries = append(s.Entries, readLogEntry(r))
		}
		sessions = append(sessions, s)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("db log: %w", err)
	}
	return sessions, nil
}

// readLogEntry reads one entry of a DB log.
func readLogEntry(r *bin.Reader) LogEntry {
	e := LogEntry{SQL: r.Str(), Args: sqlval.ReadRow(r, nil), TraceID: r.Str(), Error: r.Str()}
	if e.RowsAffected = int(r.Uvarint()); e.RowsAffected < 0 {
		r.Failf("rows affected %d out of range", uint64(e.RowsAffected))
	}
	n := r.Count("column", 1)
	e.Columns = bin.Make[string](n, r.Len())
	for ; n > 0 && r.Err() == nil; n-- {
		e.Columns = append(e.Columns, r.Str())
	}
	n = r.Count("row", 1+len(e.Columns))
	e.Rows = bin.Make[[]sqlval.Value](n, r.Len())
	for ; n > 0 && r.Err() == nil; n-- {
		row := sqlval.ReadRow(r, nil)
		if len(row) != len(e.Columns) {
			r.Failf("row has %d values, %d columns", len(row), len(e.Columns))
		}
		e.Rows = append(e.Rows, row)
	}
	return e
}

// Result reconstructs the engine.Result a recorded entry stands for. Its
// rows are the entry's own: an entry is served once.
func (e *LogEntry) Result() (*engine.Result, error) {
	if e.Error != "" {
		return nil, fmt.Errorf("replayed error: %s", e.Error)
	}
	return &engine.Result{Columns: e.Columns, Rows: e.Rows, RowsAffected: e.RowsAffected, TraceID: e.TraceID}, nil
}
