// Package server implements the LDV database server: it owns an engine.DB,
// accepts wire-protocol connections, executes statements, and streams
// results (with their provenance when requested). The server can run
// standalone on a net.Listener or as a simulated process inside osim, where
// its data directory lives in the simulated filesystem so file-granularity
// packagers observe real DB data files.
package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ldv/internal/engine"
	"ldv/internal/obs"
	obslog "ldv/internal/obs/log"
	"ldv/internal/sqlval"
	"ldv/internal/wire"
)

// Session and statement accounting, for the metrics snapshot.
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

	// conns holds the live connections by session id — what the
	// ldv_stat_activity and ldv_stat_prepared system views are rendered from.
	connMu sync.Mutex
	conns  map[int64]*clientConn
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

// statementEnv returns what every statement is run against: the read gate
// it waits at (nil unless this is a replica) and the filesystem a COPY reads
// and writes.
func (s *Server) statementEnv() (ReadGate, engine.FileSystem) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gate, s.fs
}

// New returns a server over db. logger may be nil to disable logging; it
// must not be changed after New (sessions read it concurrently, unlocked).
func New(db *engine.DB, logger *obslog.Logger) *Server {
	s := &Server{db: db, logger: logger, conns: map[int64]*clientConn{}}
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

// clientConn is one client connection: everything a statement needs on its
// way from frame to engine and back.
type clientConn struct {
	srv  *Server
	id   int64
	proc string
	out  *bufio.Writer // flushed when the request stream drains
	sess *engine.Session
	ws   *obs.SessionState
	log  *obslog.Logger

	// The connection's prepared-statement namespace (prepared.go). mu guards
	// it against the ldv_stat_prepared provider.
	mu    sync.Mutex
	stmts map[string]*engine.PreparedStmt
	args  map[string][]sqlval.Value // most recent Bind per statement
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
	c := &clientConn{
		srv: s, id: sid, proc: startup.Proc,
		out:   bufio.NewWriterSize(conn, 64<<10),
		sess:  s.db.NewSession(),
		log:   s.logger.With("sid", sid),
		stmts: map[string]*engine.PreparedStmt{},
		args:  map[string][]sqlval.Value{},
	}
	c.log.Info("session open", "proc", startup.Proc, "db", startup.Database)
	// Session teardown rolls back any transaction the client abandoned.
	defer c.sess.Close()

	// Publish this session's state: to the ASH sampler and, through the
	// server's connection set, to ldv_stat_activity. From here on, every
	// blocking point below (client reads, read-gate waits, and — via the
	// session — lock and group-commit waits) reports a wait event.
	c.ws = obs.RegisterSession(sid, startup.Proc)
	defer obs.UnregisterSession(sid)
	c.sess.SetWaitState(c.ws)
	s.connMu.Lock()
	s.conns[sid] = c
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, sid)
		s.connMu.Unlock()
	}()

	if err := c.ready(); err != nil {
		return
	}
	for {
		// About to block on the client: ship everything queued first.
		if bc.Buffered() == 0 {
			if err := c.out.Flush(); err != nil {
				c.log.Error("flush failed", "err", err)
				return
			}
		}
		msg, err := readClient(bc, c.ws)
		if err != nil {
			if err != io.EOF {
				c.log.Error("read failed", "err", err)
			}
			return
		}
		switch m := msg.(type) {
		case wire.Terminate:
			return
		case wire.Bind:
			// Fire-and-forget: errors surface on Execute.
			c.bind(m.Stmt, m.Args)
			continue
		case wire.CloseStmt:
			// Fire-and-forget; closing an unknown name is a no-op.
			c.closeStmt(m.Name)
			continue
		case wire.Query:
			err = c.runStatement(request{span: "server.query", sql: m.SQL,
				lineage: m.WithLineage, trace: m.Trace, minApplied: m.MinApplied, asOf: m.AsOf})
		case wire.Execute:
			err = c.runStatement(request{span: "server.execute", name: m.Stmt, prepared: true, tag: m.Tag,
				lineage: m.WithLineage, trace: m.Trace, minApplied: m.MinApplied})
		case wire.Parse:
			err = c.parse(m)
		case wire.Subscribe:
			src := s.replicationSource()
			if src == nil {
				err = c.fail(fmt.Errorf("this server is not a replication primary"))
				break
			}
			// The connection becomes a replication subscription: the source
			// owns it until the replica disconnects, then the session ends.
			// Hand it the buffered conn (reads must drain our buffer) after
			// flushing our own pending responses.
			c.log.Info("replication subscription", "replica", m.ReplicaID)
			if err := c.out.Flush(); err != nil {
				return
			}
			if err := src.ServeSubscription(bc, startup.Proc, m); err != nil {
				c.log.Error("replication subscription ended", "replica", m.ReplicaID, "err", err)
			}
			return
		default:
			err = c.fail(fmt.Errorf("protocol error: unexpected %T", msg))
		}
		// Every response group ends with Ready, written here and nowhere else.
		// A statement's goes out only after runStatement has returned — i.e.
		// after its span has ended — because the client seals the trace when it
		// reads Ready, and the server's spans must be in the flight recorder by
		// then.
		if err == nil {
			err = c.ready()
		}
		if err != nil {
			c.log.Error("connection failed", "err", err)
			return
		}
	}
}

func (c *clientConn) ready() error {
	return wire.WriteBuffered(c.out, wire.Ready{InTxn: c.sess.InTxn()})
}

// fail answers a request with an Error frame; the frame loop's Ready follows.
func (c *clientConn) fail(err error) error {
	return wire.WriteBuffered(c.out, wire.Error{Message: err.Error()})
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

// request is a Query or an Execute frame with the differences between the
// two settled by the frame loop: where the statement comes from, what its
// span is called, and the tag its CommandComplete echoes.
type request struct {
	span       string
	sql        string // a Query's text, parsed per request
	name       string // the prepared statement an Execute names
	prepared   bool
	tag        uint64 // 0 for a Query
	lineage    bool
	trace      obs.SpanContext
	minApplied uint64
	asOf       uint64
}

// runStatement is the one path a statement takes through the server, whether
// it arrived as a Query's text or as an Execute naming a prepared statement:
// wait at the read gate, resolve the request to an *engine.PreparedStmt,
// execute it, log it if slow, stream the response group — all under the
// request's span, joining its trace context when there is one. A missing
// statement or a Bind arity mismatch surfaces here as an Error: Bind itself
// never responds.
func (c *clientConn) runStatement(r request) error {
	mStatements.Inc()
	log := c.log
	var sp *obs.Span
	if !r.trace.IsZero() {
		sp = obs.StartSpanIn(r.span, r.trace)
		log = log.With("trace", sp.TraceID())
	}
	defer sp.End()

	gate, fs := c.srv.statementEnv()
	// On a replica, hold the statement until the apply loop has caught up to
	// the client's read-your-writes bound (and, bound or not, until the
	// replica has bootstrapped at all).
	var err error
	if gate != nil {
		err = gateWait(gate, c.ws, r.minApplied)
	}
	var (
		ps   *engine.PreparedStmt
		args []sqlval.Value
		res  *engine.Result
	)
	sql, t0 := r.sql, time.Now()
	if err == nil {
		ps, args, err = c.resolve(r, sp)
	}
	if err == nil {
		sql = ps.SQL
		res, err = c.sess.ExecPrepared(ps, args, engine.ExecOptions{Proc: c.proc,
			WithLineage: r.lineage, Span: sp, AsOf: r.asOf, FS: fs})
		// The fingerprint makes a slow-query entry joinable against
		// ldv_stat_statements.
		elapsed := time.Since(t0)
		if thr := c.srv.slowQueryNS.Load(); thr > 0 && elapsed >= time.Duration(thr) {
			log.Warn("slow query", "elapsed", elapsed, "fingerprint", ps.Info().Fingerprint,
				"waits", waitSummary(c.ws), "sql", sql)
		}
	}
	if err != nil {
		mErrors.Inc()
		log.Error("statement failed", "err", err, "sql", sql)
		return c.fail(err)
	}
	return streamResult(c.out, res, r.tag)
}

// resolve turns a request into the statement to run: a Query's text is parsed
// under an engine.parse span; an Execute's name is looked up, with the values
// its most recent Bind stored.
func (c *clientConn) resolve(r request, parent *obs.Span) (*engine.PreparedStmt, []sqlval.Value, error) {
	if !r.prepared {
		sp := parent.Child("engine.parse")
		defer sp.End()
		ps, err := engine.PrepareStatement(r.sql)
		return ps, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ps, ok := c.stmts[r.name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown prepared statement %q", r.name)
	}
	return ps, c.args[r.name], nil
}

// streamResult writes one statement's response group — RowDescription, rows,
// the one Provenance frame when the statement has provenance, CommandComplete
// — shared by the Query and Execute paths. tag is echoed in
// CommandComplete.Tag for pipelined Executes (0 for plain queries). Every
// frame is encoded in place in out's buffer, a row straight from its values
// (wire.WriteDataRows): a result costs no allocation per row.
func streamResult(out *bufio.Writer, res *engine.Result, tag uint64) error {
	if err := wire.WriteBuffered(out, wire.RowDescription{Columns: res.Columns}); err != nil {
		return err
	}
	if err := wire.WriteDataRows(out, res.Rows); err != nil {
		return err
	}
	if len(res.Lineage) > 0 || res.TupleValues.Len() > 0 {
		if err := wire.WriteBuffered(out, wire.Provenance{Versions: res.TupleValues, Lineage: res.Lineage}); err != nil {
			return err
		}
	}
	cc := wire.CommandComplete{
		RowsAffected: res.RowsAffected,
		StmtID:       res.StmtID,
		Kind:         res.Kind,
		Start:        res.Start,
		End:          res.End,
		WrittenRefs:  res.WrittenRefs,
		CommitSeq:    res.CommitSeq,
		Fingerprint:  res.Fingerprint,
		Tag:          tag,
	}
	return wire.WriteBuffered(out, cc)
}
