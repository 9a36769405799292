package server

import (
	"sort"
	"time"

	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

// ldv_stat_activity: one row per live connection, rendered from the
// obs.SessionState each connection publishes through — the record the ASH
// sampler reads, so the view and ldv_stat_ash cannot disagree. A session
// querying the view sees itself as active: its own statement is mid-execution
// when the provider runs.

// liveConns snapshots the server's connections, ordered by session id.
func (s *Server) liveConns() []*clientConn {
	s.connMu.Lock()
	conns := make([]*clientConn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.connMu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].id < conns[j].id })
	return conns
}

// registerActivityView replaces the engine's placeholder ldv_stat_activity
// with this server's live connections.
func (s *Server) registerActivityView() {
	s.db.RegisterVirtualTable(&engine.VirtualTable{
		Name: "ldv_stat_activity",
		Schema: engine.Schema{Columns: []engine.Column{
			{Name: "session", Type: sqlval.KindInt},
			{Name: "proc", Type: sqlval.KindString},
			{Name: "state", Type: sqlval.KindString},
			{Name: "fingerprint", Type: sqlval.KindString},
			{Name: "query", Type: sqlval.KindString},
			{Name: "elapsed_ns", Type: sqlval.KindInt},
		}},
		Rows: s.activityRows,
	})
}

func (s *Server) activityRows() [][]sqlval.Value {
	conns := s.liveConns()
	now := time.Now()
	rows := make([][]sqlval.Value, 0, len(conns))
	for _, c := range conns {
		stmt, elapsed, txn := c.ws.Activity(now)
		state, fingerprint, query := "idle", "", ""
		switch {
		case stmt != nil:
			state, fingerprint, query = "active", stmt.Fingerprint, stmt.SQL
		case txn != 0:
			state = "idle in transaction"
		}
		rows = append(rows, []sqlval.Value{
			sqlval.NewInt(c.id),
			sqlval.NewString(c.proc),
			sqlval.NewString(state),
			sqlval.NewString(fingerprint),
			sqlval.NewString(query),
			sqlval.NewInt(int64(elapsed)),
		})
	}
	return rows
}
