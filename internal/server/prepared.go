package server

import (
	"sort"

	"ldv/internal/engine"
	"ldv/internal/obs"
	"ldv/internal/sqlval"
	"ldv/internal/wire"
)

// Protocol-v2 prepared statements: Parse registers a named statement on the
// connection, Bind stores parameter values, Execute runs the statement with
// the most recently bound values (runStatement, the path text queries take).
// Statement names are per connection (two sessions may both own an "s1"), but
// the underlying *engine.PreparedStmt — and therefore the plan cache — is
// shared process-wide. The per-connection registry also feeds the
// ldv_stat_prepared system view.

var mStmtsPrepared = obs.NewCounter("server.stmts_prepared", "Prepared statements created over the wire (Parse messages)")

// parse prepares a statement under the client-chosen name and answers
// ParseComplete (or Error).
func (c *clientConn) parse(m wire.Parse) error {
	ps, err := c.srv.db.Prepare(m.SQL)
	if err != nil {
		mErrors.Inc()
		return c.fail(err)
	}
	c.mu.Lock()
	c.stmts[m.Name] = ps
	delete(c.args, m.Name) // a re-Parse invalidates any earlier Bind
	c.mu.Unlock()
	mStmtsPrepared.Inc()
	return wire.WriteBuffered(c.out, wire.ParseComplete{Name: m.Name, NumParams: ps.NumParams, Fingerprint: ps.Info().Fingerprint})
}

// bind stores parameter values for a statement's next Execute. Unknown names
// are stored anyway: Bind is fire-and-forget, so the error surfaces on the
// Execute that tries to use the statement.
func (c *clientConn) bind(name string, args []sqlval.Value) {
	c.mu.Lock()
	c.args[name] = args
	c.mu.Unlock()
}

func (c *clientConn) closeStmt(name string) {
	c.mu.Lock()
	delete(c.stmts, name)
	delete(c.args, name)
	c.mu.Unlock()
}

// registerPreparedView replaces the engine's placeholder ldv_stat_prepared
// with this server's live connections: one row per (session, statement name).
func (s *Server) registerPreparedView() {
	s.db.RegisterVirtualTable(&engine.VirtualTable{
		Name: "ldv_stat_prepared",
		Schema: engine.Schema{Columns: []engine.Column{
			{Name: "session", Type: sqlval.KindInt},
			{Name: "name", Type: sqlval.KindString},
			{Name: "fingerprint", Type: sqlval.KindString},
			{Name: "num_params", Type: sqlval.KindInt},
			{Name: "calls", Type: sqlval.KindInt},
			{Name: "cache_hits", Type: sqlval.KindInt},
		}},
		Rows: s.preparedRows,
	})
}

func (s *Server) preparedRows() [][]sqlval.Value {
	var rows [][]sqlval.Value
	for _, c := range s.liveConns() {
		c.mu.Lock()
		names := make([]string, 0, len(c.stmts))
		for name := range c.stmts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ps := c.stmts[name]
			rows = append(rows, []sqlval.Value{
				sqlval.NewInt(c.id),
				sqlval.NewString(name),
				sqlval.NewString(ps.Info().Fingerprint),
				sqlval.NewInt(int64(ps.NumParams)),
				sqlval.NewInt(ps.Calls()),
				sqlval.NewInt(ps.CacheHits()),
			})
		}
		c.mu.Unlock()
	}
	return rows
}
