package ldv

import (
	"encoding/json"
	"fmt"
	"strings"

	"ldv/internal/engine"
)

// SessionLog records one client session's DB interactions in order — the
// materialized query results a server-excluded package replays (§VII-D,
// §VIII).
type SessionLog struct {
	// Proc is the recording process's trace node ID (informational; replay
	// matches sessions by open order, since PIDs repeat deterministically).
	Proc    string     `json:"proc"`
	Entries []LogEntry `json:"entries"`
}

// LogEntry is one recorded statement with its full response. Args are the
// values an execution of a prepared statement bound to SQL's `?` placeholders
// (absent for a text statement). TraceID, when present, is the hex obs
// request-trace identity of the recorded execution, linking the replay log
// back to the flight recorder and provenance edges.
type LogEntry struct {
	SQL          string     `json:"sql"`
	Args         []string   `json:"args,omitempty"` // kind-prefixed cells
	TraceID      string     `json:"trace,omitempty"`
	Columns      []string   `json:"columns,omitempty"`
	Rows         [][]string `json:"rows,omitempty"` // kind-prefixed cells
	RowsAffected int        `json:"rows_affected,omitempty"`
	Error        string     `json:"error,omitempty"`
}

// describeStatement renders a statement for people: its SQL, then the values
// bound to it, if any, as a trailing comment of kind-prefixed cells.
func describeStatement(sql string, args []string) string {
	if len(args) == 0 {
		return sql
	}
	return sql + " -- " + strings.Join(args, ", ")
}

// dbLogDoc is the on-disk format of /ldv/dblog.json.
type dbLogDoc struct {
	Sessions []*SessionLog `json:"sessions"`
}

// MarshalDBLog serializes session logs for package inclusion.
func MarshalDBLog(sessions []*SessionLog) ([]byte, error) {
	return json.Marshal(dbLogDoc{Sessions: sessions})
}

// UnmarshalDBLog parses a serialized DB log.
func UnmarshalDBLog(data []byte) ([]*SessionLog, error) {
	var doc dbLogDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("db log: %w", err)
	}
	return doc.Sessions, nil
}

// Result reconstructs the engine.Result a recorded entry stands for.
func (e *LogEntry) Result() (*engine.Result, error) {
	if e.Error != "" {
		return nil, fmt.Errorf("replayed error: %s", e.Error)
	}
	res := &engine.Result{Columns: e.Columns, RowsAffected: e.RowsAffected, TraceID: e.TraceID}
	for _, cells := range e.Rows {
		row, err := decodeRowCells(cells)
		if err != nil {
			return nil, fmt.Errorf("replayed row: %w", err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
