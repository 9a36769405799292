// Package client is the LDV database client library — the analog of
// PostgreSQL's libpq that the paper instruments (§VII-C). A Conn executes
// SQL over the wire protocol and returns engine.Result values. The library's
// defining feature is its Interceptor chain: LDV's audit layer hooks here to
// force Lineage computation and record statements, results, and provenance;
// the replay layer hooks here to serve recorded results without any server
// (the server-excluded package mode, §VIII).
package client

import (
	"bytes"
	"errors"
	"fmt"
	"net"

	"ldv/internal/engine"
	"ldv/internal/obs"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
	"ldv/internal/wire"
)

// ErrClosed is returned by operations on a connection that has been closed,
// or that poisoned itself after a transport or protocol failure: once a
// frame fails to decode, the stream position is unknowable and every
// subsequent exchange would misparse, so the connection refuses further use.
var ErrClosed = errors.New("client: connection closed")

// Dialer abstracts connection establishment. osim.Process satisfies it, so
// connecting through a simulated process emits the traced connect syscall;
// NetDialer provides a real-network implementation.
type Dialer interface {
	Connect(addr string) (net.Conn, error)
}

// NetDialer dials over the real network.
type NetDialer struct{}

// Connect dials addr over TCP.
func (NetDialer) Connect(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// QueryInfo describes one statement about to be executed; interceptors may
// mutate it (e.g. set WithLineage). For an execution of a prepared statement
// SQL is the prepared text and Args the values bound to its `?` placeholders;
// a text statement has no Args. AsOf, when non-zero, pins the statement to
// the historical snapshot at that logical tick (the SQL's own AS OF clause,
// if any, wins server-side).
type QueryInfo struct {
	SQL         string
	Args        []sqlval.Value
	WithLineage bool
	AsOf        uint64
}

// Interceptor observes and optionally handles every statement flowing
// through a connection, however it was issued: Query, Exec and QueryAt,
// Stmt.Exec, and each execution a Pipeline flushes.
type Interceptor interface {
	// BeforeQuery runs before the statement is sent. Returning a non-nil
	// result short-circuits the network entirely (replay mode); returning an
	// error aborts the statement.
	BeforeQuery(info *QueryInfo) (*engine.Result, error)
	// AfterQuery observes the statement's outcome (res is nil on error). A
	// pipelined execution reports when its response group has been read —
	// also the ones a failed Flush drains, which the server did execute.
	AfterQuery(info QueryInfo, res *engine.Result, err error)
}

// BaseInterceptor is a no-op Interceptor for embedding.
type BaseInterceptor struct{}

// BeforeQuery implements Interceptor.
func (BaseInterceptor) BeforeQuery(*QueryInfo) (*engine.Result, error) { return nil, nil }

// AfterQuery implements Interceptor.
func (BaseInterceptor) AfterQuery(QueryInfo, *engine.Result, error) {}

// Conn is one client session, optionally holding a second session to a read
// replica that read-only statements are routed to.
type Conn struct {
	nc           net.Conn // nil in fully-replayed sessions
	rnc          net.Conn // non-nil when a read replica is attached
	proc         string
	interceptors []Interceptor
	closed       bool
	broken       bool // poisoned by a transport/protocol error
	inTxn        bool // server-reported transaction state from the last Ready
	noTrace      bool

	readYourWrites bool
	lastCommitSeq  uint64 // CommitSeq of the last acknowledged write

	stmtSeq int          // server-side statement names handed out by Prepare
	wbuf    bytes.Buffer // a request's frames, sent in one write
	rd      wire.Reader  // reads every response group, on either session
}

// Options configure Dial.
type Options struct {
	// Proc identifies the client process (becomes prov_p server-side).
	Proc string
	// Database selects the database name announced at startup.
	Database string
	// Interceptors are invoked in order for every statement, however it was
	// issued — as text, through a prepared statement, or on a pipeline.
	Interceptors []Interceptor
	// NoTrace disables request tracing: no root span, and a zero trace
	// context on every statement frame, so the server records no spans for
	// it either. This is the untraced baseline the tracing-overhead
	// benchmark measures against.
	NoTrace bool
	// ReadReplica, when non-empty, is the address of a read replica. A
	// second session is dialed there and read-only statements issued
	// outside a transaction are routed to it.
	ReadReplica string
	// ReadYourWrites makes routed reads carry the CommitSeq of this
	// connection's last write, so the replica's read gate holds the query
	// until its apply loop has caught up to the client's own writes.
	ReadYourWrites bool
}

// Dial opens a session via d to addr. If an interceptor fully handles
// queries (replay mode), pass a ReplayDialer that succeeds without a server.
func Dial(d Dialer, addr string, opts Options) (*Conn, error) {
	nc, err := d.Connect(addr)
	if err != nil {
		return nil, err
	}
	if nc != nil {
		// Buffer reads so one server write (a whole response group, or a
		// pipelined burst of them) costs one transport read instead of two
		// per frame. Writes pass through untouched.
		nc = wire.NewBufferedConn(nc)
	}
	c := &Conn{
		nc: nc, proc: opts.Proc, interceptors: opts.Interceptors,
		noTrace: opts.NoTrace, readYourWrites: opts.ReadYourWrites,
	}
	if nc != nil {
		inTxn, err := handshake(nc, opts)
		if err != nil {
			nc.Close()
			return nil, err
		}
		c.inTxn = inTxn
		if opts.ReadReplica != "" {
			rnc, err := d.Connect(opts.ReadReplica)
			if err != nil {
				nc.Close()
				return nil, fmt.Errorf("read replica: %w", err)
			}
			rnc = wire.NewBufferedConn(rnc)
			if _, err := handshake(rnc, opts); err != nil {
				rnc.Close()
				nc.Close()
				return nil, fmt.Errorf("read replica: %w", err)
			}
			c.rnc = rnc
		}
	}
	return c, nil
}

// handshake performs the startup exchange on one freshly-dialed connection.
func handshake(nc net.Conn, opts Options) (inTxn bool, err error) {
	if err := wire.Write(nc, wire.Startup{Proc: opts.Proc, Database: opts.Database}); err != nil {
		return false, err
	}
	msg, err := wire.Read(nc)
	if err != nil {
		return false, err
	}
	if e, ok := msg.(wire.Error); ok {
		return false, fmt.Errorf("server rejected session: %s", e.Message)
	}
	r, ok := msg.(wire.Ready)
	if !ok {
		return false, fmt.Errorf("protocol error: expected Ready, got %T", msg)
	}
	return r.InTxn, nil
}

// Proc returns the process identity announced at startup.
func (c *Conn) Proc() string { return c.proc }

// InTxn reports whether the server session holds an open transaction, as of
// the last Ready frame. Replay-only sessions always report false.
func (c *Conn) InTxn() bool { return c.inTxn }

// LastCommitSeq returns the WAL sequence of this connection's most recent
// acknowledged write, or 0 before any write. This is the position a
// read-your-writes read waits for on a replica.
func (c *Conn) LastCommitSeq() uint64 { return c.lastCommitSeq }

// Query executes one SQL statement and returns its full result. On a
// connection with a read replica attached, read-only statements outside a
// transaction are routed to the replica. The result's rows share one slab
// of values and their TEXT values one string (engine.Result), so an
// application that keeps one row keeps its whole response; it shares
// nothing with any other result of the connection.
func (c *Conn) Query(sql string) (*engine.Result, error) { return c.QueryAt(sql, 0) }

// Exec executes a statement, discarding rows (convenience alias).
func (c *Conn) Exec(sql string) (*engine.Result, error) { return c.Query(sql) }

// QueryAt executes one SQL statement against the historical snapshot at the
// given logical tick — time travel without rewriting the SQL. Equivalent to
// appending AS OF asOf to a SELECT; the bound rides the Query frame's AsOf
// field.
func (c *Conn) QueryAt(sql string, asOf uint64) (*engine.Result, error) {
	if c.closed || c.broken {
		return nil, ErrClosed
	}
	cl := call{info: QueryInfo{SQL: sql, AsOf: asOf}}
	return c.do(&cl)
}

// call is one statement on its way through the connection: a Query's text or
// one execution of a prepared statement. Every statement, however it was
// issued, is one call taken through start and finish — Query and Stmt.Exec
// back to back (do), a Pipeline with the write of all its calls in between.
type call struct {
	info QueryInfo
	stmt *Stmt    // nil: info.SQL goes out as a Query frame
	tag  uint64   // echoed by CommandComplete; non-zero on a pipeline
	nc   net.Conn // the session its frames went to; nil when the chain settled it
	sp   *obs.Span
	res  *engine.Result
	err  error
}

// start runs the BeforeQuery chain and, unless an interceptor answered or
// refused the statement, routes it, opens its span and appends its frames to
// w. Unless the connection was dialed with NoTrace, the statement runs under
// a fresh root span whose context rides the frame; server, engine, and WAL
// spans join it. The span outlives this function (a pipelined call is
// finished after the write of the whole batch), so it is held in the call and
// ended by finish, which do and Pipeline.Flush run for every call they start.
func (c *Conn) start(cl *call, w *bytes.Buffer) {
	if len(c.interceptors) > 0 {
		// The chain mutates a copy, so a connection without interceptors
		// keeps the call off the heap.
		info := cl.info
		for _, ic := range c.interceptors {
			if cl.res, cl.err = ic.BeforeQuery(&info); cl.res != nil || cl.err != nil {
				break
			}
		}
		cl.info = info
		if cl.res != nil || cl.err != nil {
			return
		}
	}
	if c.nc == nil {
		cl.err = fmt.Errorf("no server connection and no interceptor handled %q", cl.info.SQL)
		return
	}
	// Encoding into a buffer cannot fail.
	if cl.stmt == nil {
		var minApplied uint64
		cl.nc, minApplied = c.route(cl.info.SQL)
		if !c.noTrace {
			cl.sp = obs.StartSpan("client.query").SetAttr("sql", cl.info.SQL)
		}
		_ = wire.Write(w, wire.Query{SQL: cl.info.SQL, WithLineage: cl.info.WithLineage,
			Trace: cl.sp.Context(), MinApplied: minApplied, AsOf: cl.info.AsOf})
		return
	}
	// A prepared statement's name lives in the primary's session, so replica
	// routing does not apply. Bind never answers: the pair costs one round
	// trip.
	cl.nc = c.nc
	if !c.noTrace {
		cl.sp = obs.StartSpan("client.exec").SetAttr("sql", cl.info.SQL)
	}
	if len(cl.info.Args) > 0 {
		_ = wire.Write(w, wire.Bind{Stmt: cl.stmt.name, Args: cl.info.Args})
	}
	_ = wire.Write(w, wire.Execute{Stmt: cl.stmt.name, Tag: cl.tag,
		WithLineage: cl.info.WithLineage, Trace: cl.sp.Context()})
}

// finish reads the call's response group if its frames went out, ends its
// span — after the final Ready has been read, i.e. after the server recorded
// its spans, which seals the trace into the flight recorder — and runs the
// AfterQuery chain.
func (c *Conn) finish(cl *call) (*engine.Result, error) {
	switch {
	case cl.nc == nil || cl.err != nil: // settled by the chain, or never left
	case c.broken: // an earlier call of the same flush lost the stream
		cl.err = ErrClosed
	default:
		rp := reply{res: &engine.Result{TraceID: traceIDString(cl.sp)}}
		if cl.err = c.readResponse(cl.nc, &rp); cl.err == nil && rp.tag != cl.tag {
			c.broken = true
			cl.err = fmt.Errorf("%w: response tag %d, want %d", ErrClosed, rp.tag, cl.tag)
		}
		cl.res = rp.res
	}
	cl.sp.End()
	if cl.err != nil {
		cl.res = nil
	}
	for _, ic := range c.interceptors {
		ic.AfterQuery(cl.info, cl.res, cl.err)
	}
	return cl.res, cl.err
}

// do is the request routine of a statement sent on its own.
func (c *Conn) do(cl *call) (*engine.Result, error) {
	c.wbuf.Reset()
	c.start(cl, &c.wbuf)
	if cl.nc != nil {
		cl.err = c.send(cl.nc, c.wbuf.Bytes())
	}
	return c.finish(cl)
}

// send writes encoded frames in one transport write. A failure poisons the
// connection.
func (c *Conn) send(nc net.Conn, frames []byte) error {
	if _, err := nc.Write(frames); err != nil {
		c.broken = true
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return nil
}

// reply is what one response group carried: a statement's frames collected
// into res, or the answer to a Parse request.
type reply struct {
	res    *engine.Result
	tag    uint64 // CommandComplete.Tag: 0 unless the execution was pipelined
	parsed wire.ParseComplete
}

// readResponse collects one response group — everything up to and including
// the Ready — into rp. It is the only frame reader after the handshake, so
// there is one rule for every request: transport and framing failures poison
// the connection, including a failure to read the Ready that follows a server
// Error, and so does a group out of its grammar (PROTOCOL.md): a row after
// the Provenance frame, a second Provenance frame, or one whose lineage lists
// do not match the rows one for one; a server Error whose Ready arrives
// (keeping the stream synced) does not.
//
// The frames go through the connection's wire.Reader: its buffers are reused
// from group to group, and the group's rows are decoded once its Ready has
// arrived, into one slab (wire.Reader.Rows).
func (c *Conn) readResponse(nc net.Conn, rp *reply) error {
	defer c.rd.Reset()
	res := rp.res
	if res == nil {
		// A Parse reply: statement frames are no answer to it; they are
		// tolerated and dropped.
		res = new(engine.Result)
	}
	var sawProvenance, answered bool
	nrows := 0
	for {
		msg, err := c.rd.Read(nc)
		if err != nil {
			// The stream position is gone; no further frame boundary can be
			// trusted, so poison the connection.
			c.broken = true
			return fmt.Errorf("%w: %v", ErrClosed, err)
		}
		switch m := msg.(type) {
		case wire.RowDescription:
			res.Columns = m.Columns
		case wire.DataRow:
			if sawProvenance {
				return c.poison("DataRow after Provenance")
			}
			nrows++
		case wire.Provenance:
			switch {
			case sawProvenance:
				return c.poison("second Provenance frame")
			case len(m.Lineage) != nrows:
				return c.poison("%d lineage lists for %d rows", len(m.Lineage), nrows)
			}
			sawProvenance = true
			res.Lineage, res.TupleValues = m.Lineage, m.Versions
		case wire.CommandComplete:
			res.RowsAffected = m.RowsAffected
			res.StmtID = m.StmtID
			res.Kind = m.Kind
			res.Start = m.Start
			res.End = m.End
			res.WrittenRefs = m.WrittenRefs
			res.CommitSeq = m.CommitSeq
			res.Fingerprint = m.Fingerprint
			rp.tag, answered = m.Tag, true
			if m.CommitSeq > 0 {
				c.lastCommitSeq = m.CommitSeq
			}
		case wire.ParseComplete:
			rp.parsed, answered = m, true
		case wire.Error:
			// Drain the Ready that follows an error.
			next, rerr := c.rd.Read(nc)
			if rerr != nil {
				c.broken = true
				return fmt.Errorf("server error: %s (then %w: %v)", m.Message, ErrClosed, rerr)
			}
			r, ok := next.(wire.Ready)
			if !ok {
				c.broken = true
				return fmt.Errorf("protocol error after server error: %T", next)
			}
			if nc == c.nc {
				c.inTxn = r.InTxn
			}
			return fmt.Errorf("server error: %s", m.Message)
		case wire.Ready:
			if nc == c.nc {
				c.inTxn = m.InTxn
			}
			if !answered {
				return fmt.Errorf("protocol error: Ready before an answer")
			}
			if res.Rows, err = c.rd.Rows(); err != nil {
				return c.poison("%v", err)
			}
			return nil
		default:
			return c.poison("unexpected %T", msg)
		}
	}
}

// poison marks the connection unusable after a response out of the
// protocol's grammar: where the stream stands is no longer known.
func (c *Conn) poison(format string, args ...any) error {
	c.broken = true
	return fmt.Errorf("%w: protocol error: %s", ErrClosed, fmt.Sprintf(format, args...))
}

// route picks the connection for one text statement: read-only statements
// outside a transaction go to the read replica when one is attached,
// carrying the read-your-writes bound if enabled. Everything else — writes,
// transaction control, unparseable statements — goes to the primary.
func (c *Conn) route(sql string) (net.Conn, uint64) {
	if c.rnc == nil || c.inTxn {
		return c.nc, 0
	}
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return c.nc, 0
	}
	if _, ok := stmt.(*sqlparse.Select); !ok {
		return c.nc, 0
	}
	var min uint64
	if c.readYourWrites {
		min = c.lastCommitSeq
	}
	return c.rnc, min
}

// traceIDString renders a span's trace identity for Result stamping (""
// when tracing is off).
func traceIDString(sp *obs.Span) string {
	if sp == nil {
		return ""
	}
	return sp.TraceID().String()
}

// Close terminates the session.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.rnc != nil {
		_ = wire.Write(c.rnc, wire.Terminate{})
		_ = c.rnc.Close()
	}
	if c.nc == nil {
		return nil
	}
	_ = wire.Write(c.nc, wire.Terminate{})
	return c.nc.Close()
}

// ReplayDialer "connects" without any server: every query must be handled
// by an interceptor. Used to open sessions against server-excluded packages.
type ReplayDialer struct{}

// Connect returns a nil connection, signalling interceptor-only mode.
func (ReplayDialer) Connect(string) (net.Conn, error) { return nil, nil }
