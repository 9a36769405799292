// Package server implements the LDV database server: it owns an engine.DB,
// accepts wire-protocol connections, executes statements, and streams
// results (with per-row Lineage when requested). The server can run
// standalone on a net.Listener or as a simulated process inside osim, where
// its data directory lives in the simulated filesystem so file-granularity
// packagers observe real DB data files.
package server

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ldv/internal/engine"
	"ldv/internal/obs"
	obslog "ldv/internal/obs/log"
	"ldv/internal/sqlparse"
	"ldv/internal/wire"
)

// Session and statement accounting for the Stats endpoint.
var (
	mSessions       = obs.NewCounter("server.sessions", "Client sessions accepted")
	gActiveSessions = obs.NewGauge("server.active_sessions", "Client sessions currently connected")
	mStatements     = obs.NewCounter("server.stmts", "Statements received over the wire")
	mErrors         = obs.NewCounter("server.errors", "Statements that failed on the server")
)

// Acceptor abstracts the listeners the server can serve on: both
// net.Listener and osim.Listener satisfy it.
type Acceptor interface {
	Accept() (net.Conn, error)
}

// Server executes statements against a database on behalf of wire clients.
// Each connection gets its own engine.Session, so sessions run concurrently
// and hold independent transactions.
type Server struct {
	db *engine.DB
	// logger is immutable after New — unlike fs it is never reassigned, so
	// every goroutine may read it without holding mu. A nil logger discards
	// everything (obslog methods are nil-safe).
	logger *obslog.Logger
	// slowQueryNS is the slow-query log threshold in nanoseconds (0 = off).
	slowQueryNS atomic.Int64

	mu  sync.Mutex
	fs  engine.FileSystem
	dur *durability // non-nil once EnableDurability succeeds

	// repl is the replication source serving Subscribe requests (a primary),
	// gate the read gate replica servers consult before running queries.
	repl ReplicationSource
	gate ReadGate

	// activity tracks live connections for the ldv_stat_activity system
	// view, keyed by session id.
	actMu    sync.Mutex
	activity map[int64]*sessionActivity

	// prepared tracks each connection's named prepared statements for the
	// ldv_stat_prepared system view, keyed by session id.
	prepMu   sync.Mutex
	prepared map[int64]*sessionStmts
}

// ReplicationSource serves replication subscriptions — the primary role.
// ServeSubscription takes over the connection after the server read a
// Subscribe message: it streams the bootstrap snapshot and then WAL
// segments until the peer disconnects. Implemented by repl.Primary; an
// interface here so the server package does not depend on repl.
type ReplicationSource interface {
	ServeSubscription(conn net.Conn, proc string, sub wire.Subscribe) error
}

// ReadGate delays queries on a replica until the local database has applied
// at least minSeq (0 = just bootstrapped and live). Implemented by
// repl.Replica.
type ReadGate interface {
	WaitApplied(minSeq uint64) error
}

// SetReplicationSource makes the server answer Subscribe messages from src
// (pass nil to refuse them). Safe to call while serving.
func (s *Server) SetReplicationSource(src ReplicationSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.repl = src
}

// SetReadGate installs the query gate of a replica server (nil = none).
func (s *Server) SetReadGate(g ReadGate) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = g
}

func (s *Server) replicationSource() ReplicationSource {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repl
}

func (s *Server) readGate() ReadGate {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gate
}

// New returns a server over db. logger may be nil to disable logging; it
// must not be changed after New (sessions read it concurrently, unlocked).
func New(db *engine.DB, logger *obslog.Logger) *Server {
	s := &Server{db: db, logger: logger, activity: map[int64]*sessionActivity{}, prepared: map[int64]*sessionStmts{}}
	s.registerActivityView()
	s.registerPreparedView()
	return s
}

// SetSlowQueryThreshold enables the slow-query log: statements taking d or
// longer are logged at warn level with their SQL, latency, and trace id.
// Zero disables it. Safe to call while serving.
func (s *Server) SetSlowQueryThreshold(d time.Duration) {
	s.slowQueryNS.Store(int64(d))
}

// SetFS gives the server a filesystem for COPY statements. When the server
// runs as a simulated process this is its ProcFS, so COPY file accesses are
// traced as server I/O.
func (s *Server) SetFS(fs engine.FileSystem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fs = fs
}

func (s *Server) fileSystem() engine.FileSystem {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fs
}

// DB exposes the underlying database (used by packagers that need direct
// access, e.g. to checkpoint the data directory).
func (s *Server) DB() *engine.DB { return s.db }

// Serve accepts connections until the acceptor fails (e.g. is closed),
// handling each session on its own goroutine.
func (s *Server) Serve(l Acceptor) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.HandleConn(conn)
	}
}

// HandleConn runs one client session to completion.
//
// Transport batching: reads go through a BufferedConn and responses
// accumulate in a bufio.Writer that is flushed only when the request stream
// drains — i.e. just before the session would block waiting for the client.
// For one statement at a time this degenerates to one write per response
// group; for a pipelined burst of Executes the whole burst's response groups
// leave in a single write. Frame boundaries are unchanged either way.
func (s *Server) HandleConn(conn net.Conn) {
	defer conn.Close()
	bc := wire.NewBufferedConn(conn)
	out := bufio.NewWriterSize(conn, 64<<10)

	first, err := wire.Read(bc)
	if err != nil {
		return
	}
	startup, ok := first.(wire.Startup)
	if !ok {
		_ = wire.Write(conn, wire.Error{Message: "protocol error: expected Startup"})
		return
	}
	// The sessions counter is the single source of truth for session ids:
	// Add returns the post-increment value, which is this session's id.
	sid := mSessions.Add(1)
	gActiveSessions.Add(1)
	defer gActiveSessions.Add(-1)
	slog := s.logger.With("sid", sid)
	slog.Info("session open", "proc", startup.Proc, "db", startup.Database)

	// traceAware sessions announced the "trace" Startup option: the server
	// records spans joining the trace context their queries carry.
	traceAware := false
	for _, o := range startup.Options {
		if o == "trace" {
			traceAware = true
		}
	}
	// defaultTrace is the session's standing trace context, set by
	// TraceContext messages; per-query headers override it.
	var defaultTrace obs.SpanContext

	// Session teardown rolls back any transaction the client abandoned.
	sess := s.db.NewSession()
	defer sess.Close()

	// Publish this session's state to the ASH sampler. From here on, every
	// blocking point below (client reads, read-gate waits, and — via the
	// session — lock and group-commit waits) reports a wait event.
	ws := obs.RegisterSession(sid, startup.Proc)
	defer obs.UnregisterSession(sid)
	sess.SetWaitState(ws)

	act := s.registerActivity(sid, startup.Proc)
	defer s.deregisterActivity(sid)

	stmts := s.registerStmts(sid)
	defer s.deregisterStmts(sid)

	if err := wire.Write(out, wire.Ready{InTxn: sess.InTxn()}); err != nil {
		return
	}
	for {
		// About to block on the client: ship everything queued first.
		if bc.Buffered() == 0 {
			if err := out.Flush(); err != nil {
				slog.Error("flush failed", "err", err)
				return
			}
		}
		msg, err := readClient(bc, ws)
		if err != nil {
			if err != io.EOF {
				slog.Error("read failed", "err", err)
			}
			return
		}
		switch m := msg.(type) {
		case wire.Terminate:
			return
		case wire.TraceContext:
			defaultTrace = m.Context
		case wire.Query:
			mStatements.Inc()
			sc := m.Trace
			if sc.IsZero() {
				sc = defaultTrace
			}
			if !traceAware {
				sc = obs.SpanContext{}
			}
			if err := s.handleQuery(out, sess, act, slog, startup.Proc, m, sc); err != nil {
				slog.Error("query connection failed", "err", err)
				return
			}
		case wire.Parse:
			if err := s.handleParse(out, sess, stmts, m); err != nil {
				slog.Error("parse connection failed", "err", err)
				return
			}
		case wire.Bind:
			// Fire-and-forget like TraceContext: errors surface on Execute.
			stmts.bind(m.Stmt, m.Args)
		case wire.Execute:
			mStatements.Inc()
			sc := m.Trace
			if sc.IsZero() {
				sc = defaultTrace
			}
			if !traceAware {
				sc = obs.SpanContext{}
			}
			if err := s.handleExecute(out, sess, act, slog, startup.Proc, stmts, m, sc); err != nil {
				slog.Error("execute connection failed", "err", err)
				return
			}
		case wire.CloseStmt:
			// Fire-and-forget; closing an unknown name is a no-op.
			stmts.close(m.Name)
		case wire.Stats:
			if err := s.handleStats(out, sess, m); err != nil {
				slog.Error("stats failed", "err", err)
				return
			}
		case wire.Subscribe:
			src := s.replicationSource()
			if src == nil {
				if err := wire.Write(out, wire.Error{Message: "this server is not a replication primary"}); err != nil {
					return
				}
				if err := wire.Write(out, wire.Ready{InTxn: sess.InTxn()}); err != nil {
					return
				}
				continue
			}
			// The connection becomes a replication subscription: the source
			// owns it until the replica disconnects, then the session ends.
			// Hand it the buffered conn (reads must drain our buffer) after
			// flushing our own pending responses.
			slog.Info("replication subscription", "replica", m.ReplicaID)
			if err := out.Flush(); err != nil {
				return
			}
			if err := src.ServeSubscription(bc, startup.Proc, m); err != nil {
				slog.Error("replication subscription ended", "replica", m.ReplicaID, "err", err)
			}
			return
		default:
			if err := wire.Write(out, wire.Error{Message: fmt.Sprintf("protocol error: unexpected %T", msg)}); err != nil {
				return
			}
			if err := wire.Write(out, wire.Ready{InTxn: sess.InTxn()}); err != nil {
				return
			}
		}
	}
}

// readClient blocks for the next client message under a client.read wait,
// so sessions idling between requests show as idle-waiting in the ASH
// rather than on-CPU.
func readClient(bc *wire.BufferedConn, ws *obs.SessionState) (wire.Message, error) {
	msg, err := func() (wire.Message, error) {
		end := obs.WaitBegin(ws, obs.WaitClientRead)
		defer end()
		return wire.Read(bc)
	}()
	// A message arrived: the new request's waits (read gate, locks, group
	// commit) start from zero. The reset must come after the read wait's
	// end() — the idle time spent receiving this request belongs to the
	// cumulative client.read totals, not to the statement it carries.
	ws.ResetStatementWaits()
	return msg, err
}

// gateWait blocks on a replica's read gate under a repl.apply wait, making
// read-your-writes stalls attributable in the ASH and wait-event stats.
func gateWait(g ReadGate, ws *obs.SessionState, minSeq uint64) error {
	end := obs.WaitBegin(ws, obs.WaitReplApply)
	defer end()
	return g.WaitApplied(minSeq)
}

// waitSummary renders a statement's wait profile for the slow-query log:
// "<dominant event>:<dominant time>/<total wait time>", or "none" when the
// statement never blocked.
func waitSummary(ws *obs.SessionState) string {
	ev, domNS, totalNS := ws.StatementWaits()
	if totalNS <= 0 || ev == obs.WaitNone {
		return "none"
	}
	return fmt.Sprintf("%s:%s/%s", ev.Name(), time.Duration(domNS), time.Duration(totalNS))
}

// handleStats serves a Stats request with the requested observability
// document: the metrics snapshot, or the flight recorder's completed traces.
func (s *Server) handleStats(conn io.Writer, sess *engine.Session, req wire.Stats) error {
	var data []byte
	var err error
	switch req.Kind {
	case wire.StatsKindMetrics:
		data, err = obs.TakeSnapshot().JSON()
	case wire.StatsKindTraces:
		data, err = obs.MarshalTraces(obs.Traces())
	default:
		err = fmt.Errorf("unknown stats kind %d", req.Kind)
	}
	if err != nil {
		if werr := wire.Write(conn, wire.Error{Message: err.Error()}); werr != nil {
			return werr
		}
		return wire.Write(conn, wire.Ready{InTxn: sess.InTxn()})
	}
	if err := wire.Write(conn, wire.StatsResult{JSON: data}); err != nil {
		return err
	}
	return wire.Write(conn, wire.Ready{InTxn: sess.InTxn()})
}

// handleQuery executes one Query and streams its response. The response
// body (rows, completion or error) is written by runQuery, which owns the
// per-request span; the final Ready goes out only after runQuery returns —
// i.e. after the span has ended — because the client seals the trace when it
// reads Ready, and the server's spans must be in the flight recorder by then.
// The writer is HandleConn's session output buffer, flushed when the request
// stream drains.
func (s *Server) handleQuery(conn io.Writer, sess *engine.Session, act *sessionActivity, slog *obslog.Logger, proc string, q wire.Query, sc obs.SpanContext) error {
	if err := s.runQuery(conn, sess, act, slog, proc, q, sc); err != nil {
		return err
	}
	return wire.Write(conn, wire.Ready{InTxn: sess.InTxn()})
}

// runQuery executes the statement under a server.query span joining the
// request's trace context (when one is present) and writes everything up to
// but not including the final Ready.
func (s *Server) runQuery(conn io.Writer, sess *engine.Session, act *sessionActivity, slog *obslog.Logger, proc string, q wire.Query, sc obs.SpanContext) error {
	var sp *obs.Span
	if !sc.IsZero() {
		sp = obs.StartSpanIn("server.query", sc)
		slog = slog.With("trace", sp.TraceID())
	}
	defer sp.End()
	// On a replica, hold the query until the apply loop has caught up to the
	// client's read-your-writes bound (and, bound or not, until the replica
	// has bootstrapped at all).
	if g := s.readGate(); g != nil {
		if err := gateWait(g, sess.WaitState(), q.MinApplied); err != nil {
			mErrors.Inc()
			slog.Error("read gate failed", "err", err, "min_applied", q.MinApplied)
			return wire.Write(conn, wire.Error{Message: err.Error()})
		}
	}
	t0 := time.Now()
	res, err := s.exec(sess, act, q.SQL, engine.ExecOptions{Proc: proc, WithLineage: q.WithLineage, Span: sp, AsOf: q.AsOf})
	elapsed := time.Since(t0)
	if thr := s.slowQueryNS.Load(); thr > 0 && elapsed >= time.Duration(thr) {
		// The fingerprint makes a slow-query entry joinable against
		// ldv_stat_statements (falling back to a fresh computation when the
		// statement failed before producing a Result).
		fp := ""
		if res != nil {
			fp = res.Fingerprint
		} else {
			fp = sqlparse.ComputeFingerprint(q.SQL).String()
		}
		slog.Warn("slow query", "elapsed", elapsed, "fingerprint", fp,
			"waits", waitSummary(sess.WaitState()), "sql", q.SQL)
	}
	if err != nil {
		mErrors.Inc()
		slog.Error("statement failed", "err", err, "sql", q.SQL)
		return wire.Write(conn, wire.Error{Message: err.Error()})
	}
	return streamResult(conn, res, 0)
}

// streamResult writes one statement's response group — RowDescription, rows
// (with lineage when computed), inline provenance tuples, CommandComplete —
// shared by the Query and Execute paths. tag is echoed in CommandComplete.Tag
// for pipelined Executes (0 for plain queries, keeping their frames
// byte-identical to the pre-v2 protocol).
func streamResult(conn io.Writer, res *engine.Result, tag uint64) error {
	if err := wire.Write(conn, wire.RowDescription{Columns: res.Columns}); err != nil {
		return err
	}
	for i, row := range res.Rows {
		if err := wire.Write(conn, wire.DataRow{Values: row}); err != nil {
			return err
		}
		if res.Lineage != nil {
			if err := wire.Write(conn, wire.LineageRow{Refs: res.Lineage[i]}); err != nil {
				return err
			}
		}
	}
	if tv := res.TupleValues; tv.Len() > 0 {
		if err := wire.Write(conn, wire.TupleValues{Refs: tv.Refs(), Rows: tv.Values()}); err != nil {
			return err
		}
	}
	cc := wire.CommandComplete{
		RowsAffected: res.RowsAffected,
		StmtID:       res.StmtID,
		Start:        res.Start,
		End:          res.End,
		ReadRefs:     res.ReadRefs,
		WrittenRefs:  res.WrittenRefs,
		CommitSeq:    res.CommitSeq,
		Fingerprint:  res.Fingerprint,
		Tag:          tag,
	}
	return wire.Write(conn, cc)
}

// exec runs one statement on the connection's session, intercepting COPY
// (which needs file access). The activity entry covers execution only — a
// session burning in parse shows idle, which is fine at parse latencies.
func (s *Server) exec(sess *engine.Session, act *sessionActivity, sql string, opts engine.ExecOptions) (*engine.Result, error) {
	p, err := parseTraced(sql, opts.Span)
	if err != nil {
		return nil, err
	}
	act.begin(p.Fingerprint.String(), sql)
	defer func() { act.finish(sess.InTxn()) }()
	if c, ok := p.Stmt.(*sqlparse.Copy); ok {
		return s.execCopy(sess, c, opts)
	}
	return sess.ExecParsed(p, opts)
}

// parseTraced parses one statement under an engine.parse span.
func parseTraced(sql string, parent *obs.Span) (engine.Parsed, error) {
	sp := parent.Child("engine.parse")
	defer sp.End()
	return engine.ParseStatement(sql)
}

// execCopy performs COPY table FROM/TO 'path' using the server's
// filesystem. Records are CSV; NULL is \N.
func (s *Server) execCopy(sess *engine.Session, c *sqlparse.Copy, opts engine.ExecOptions) (*engine.Result, error) {
	fs := s.fileSystem()
	if fs == nil {
		return nil, fmt.Errorf("COPY: server has no filesystem configured")
	}
	if c.To {
		records, res, err := sess.CopyTo(c.Table, opts)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		w := csv.NewWriter(&buf)
		if err := w.WriteAll(records); err != nil {
			return nil, err
		}
		if err := fs.WriteFile(c.Path, buf.Bytes()); err != nil {
			return nil, fmt.Errorf("COPY TO %s: %w", c.Path, err)
		}
		return res, nil
	}
	data, err := fs.ReadFile(c.Path)
	if err != nil {
		return nil, fmt.Errorf("COPY FROM %s: %w", c.Path, err)
	}
	r := csv.NewReader(bytes.NewReader(data))
	records, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("COPY FROM %s: %w", c.Path, err)
	}
	return sess.CopyFrom(c.Table, records, opts)
}
