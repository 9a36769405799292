package client

import (
	"bytes"
	"errors"
	"fmt"

	"ldv/internal/engine"
	"ldv/internal/obs"
	"ldv/internal/sqlval"
	"ldv/internal/wire"
)

// Prepared statements and pipelining — the protocol-v2 client surface.
// Prepare parses a statement once server-side; Stmt.Exec runs it with
// positional `?` arguments in a single round trip (Bind and Execute share
// one write, Bind being fire-and-forget). A Pipeline goes further and queues
// many executions into one buffered write, then matches the streamed
// response groups back in order by CommandComplete tag.
//
// Prepared statements always run on the primary connection: the statement
// name lives in that server session, so replica routing does not apply.

// ErrPipeline is the typed error a pipeline returns once a queued execution
// has failed: like ErrClosed for connections, it poisons the Pipeline — the
// failed flush drains but discards every response after the failure, and
// later Queue/Flush calls fail immediately. The underlying connection stays
// usable (transport failures additionally poison it with ErrClosed). Match
// with errors.Is.
var ErrPipeline = errors.New("client: pipeline aborted")

// ErrNotIntercepted is the typed error Prepare returns on a connection that
// has interceptors: Stmt.Exec and Pipeline do not run the interceptor chain,
// so a prepared statement there would execute unseen — unaudited under LDV's
// auditor, unanswerable under its replayer. Match with errors.Is.
var ErrNotIntercepted = errors.New("client: prepared statements bypass the interceptor chain; this connection has interceptors")

// Stmt is a server-side prepared statement owned by one Conn.
type Stmt struct {
	c           *Conn
	name        string
	sql         string
	numParams   int
	fingerprint string
	closed      bool
}

// Name returns the server-side statement name ("s1", "s2", ... — the key in
// ldv_stat_prepared).
func (s *Stmt) Name() string { return s.name }

// NumParams returns how many `?` parameters each execution must supply.
func (s *Stmt) NumParams() int { return s.numParams }

// Fingerprint returns the statement's normalized fingerprint — the plan
// cache key and the join key against ldv_stat_statements.
func (s *Stmt) Fingerprint() string { return s.fingerprint }

// Prepare parses sql server-side for repeated execution. Positional `?`
// placeholders become parameters supplied to each Exec. The statement is
// named by the client ("s1", "s2", ...) and lives until Close or the end of
// the connection. A connection with interceptors refuses with
// ErrNotIntercepted.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	if c.closed || c.broken {
		return nil, ErrClosed
	}
	if len(c.interceptors) > 0 {
		return nil, ErrNotIntercepted
	}
	if c.nc == nil {
		return nil, fmt.Errorf("client: prepared statements need a server connection")
	}
	c.stmtSeq++
	name := fmt.Sprintf("s%d", c.stmtSeq)
	if err := wire.Write(c.nc, wire.Parse{Name: name, SQL: sql}); err != nil {
		c.broken = true
		return nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	st := &Stmt{c: c, name: name, sql: sql}
	var serverErr error
	for {
		msg, err := wire.Read(c.nc)
		if err != nil {
			c.broken = true
			return nil, fmt.Errorf("%w: %v", ErrClosed, err)
		}
		switch m := msg.(type) {
		case wire.ParseComplete:
			st.numParams = m.NumParams
			st.fingerprint = m.Fingerprint
		case wire.Error:
			serverErr = fmt.Errorf("server error: %s", m.Message)
		case wire.Ready:
			c.inTxn = m.InTxn
			if serverErr != nil {
				return nil, serverErr
			}
			return st, nil
		default:
			c.broken = true
			return nil, fmt.Errorf("protocol error: unexpected %T", msg)
		}
	}
}

// Exec runs the prepared statement with the given arguments in one round
// trip: a fire-and-forget Bind followed by an Execute, then one response
// group. Arguments may be Go ints, floats, strings, bools, nil, or
// sqlval.Value.
func (s *Stmt) Exec(args ...any) (*engine.Result, error) {
	c := s.c
	if c.closed || c.broken {
		return nil, ErrClosed
	}
	if s.closed {
		return nil, fmt.Errorf("client: statement %s is closed", s.name)
	}
	vals, err := toValues(args)
	if err != nil {
		return nil, err
	}
	if len(vals) != s.numParams {
		return nil, fmt.Errorf("client: statement %s wants %d parameters, got %d", s.name, s.numParams, len(vals))
	}
	var sp *obs.Span
	if !c.noTrace {
		sp = obs.StartSpan("client.exec").SetAttr("sql", s.sql)
	}
	defer sp.End()
	// One buffered write for both frames: Bind never answers, so the pair
	// still costs a single round trip.
	var buf bytes.Buffer
	if s.numParams > 0 {
		if err := wire.Write(&buf, wire.Bind{Stmt: s.name, Args: vals}); err != nil {
			return nil, err
		}
	}
	if err := wire.Write(&buf, wire.Execute{Stmt: s.name, Trace: sp.Context()}); err != nil {
		return nil, err
	}
	if _, err := c.nc.Write(buf.Bytes()); err != nil {
		c.broken = true
		return nil, fmt.Errorf("%w: %v", ErrClosed, err)
	}
	res := &engine.Result{TraceID: traceIDString(sp)}
	if _, err := c.readResponse(c.nc, res); err != nil {
		return nil, err
	}
	return res, nil
}

// Close discards the server-side statement (fire-and-forget).
func (s *Stmt) Close() error {
	c := s.c
	if s.closed || c.closed || c.broken {
		return nil
	}
	s.closed = true
	if err := wire.Write(c.nc, wire.CloseStmt{Name: s.name}); err != nil {
		c.broken = true
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return nil
}

// Pipeline batches prepared-statement executions: Queue buffers Bind/Execute
// frame pairs locally, Flush ships them in one write and reads the response
// groups back in order, so N statements cost one round trip instead of N.
// A Pipeline is single-use per flush cycle but reusable after a successful
// Flush; it is not safe for concurrent use.
type Pipeline struct {
	c       *Conn
	buf     bytes.Buffer
	queued  []uint64 // tags in queue order
	nextTag uint64
	err     error // sticky ErrPipeline once poisoned
}

// Pipeline starts an empty pipeline on the connection.
func (c *Conn) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Queue appends one execution of s to the pipeline. Nothing is sent until
// Flush.
func (p *Pipeline) Queue(s *Stmt, args ...any) error {
	if p.err != nil {
		return p.err
	}
	if p.c.closed || p.c.broken {
		return ErrClosed
	}
	if s.c != p.c {
		return fmt.Errorf("client: statement %s belongs to another connection", s.name)
	}
	if s.closed {
		return fmt.Errorf("client: statement %s is closed", s.name)
	}
	vals, err := toValues(args)
	if err != nil {
		return err
	}
	if len(vals) != s.numParams {
		return fmt.Errorf("client: statement %s wants %d parameters, got %d", s.name, s.numParams, len(vals))
	}
	if s.numParams > 0 {
		if err := wire.Write(&p.buf, wire.Bind{Stmt: s.name, Args: vals}); err != nil {
			return err
		}
	}
	p.nextTag++
	if err := wire.Write(&p.buf, wire.Execute{Stmt: s.name, Tag: p.nextTag}); err != nil {
		return err
	}
	p.queued = append(p.queued, p.nextTag)
	return nil
}

// Flush sends every queued execution in one write and collects their
// response groups, in queue order. On a server error the pipeline is
// poisoned: the results up to the failure are returned alongside an error
// wrapping ErrPipeline, and the remaining in-flight responses are drained
// and discarded to keep the connection usable. Transport failures poison
// the connection itself (ErrClosed).
func (p *Pipeline) Flush() ([]*engine.Result, error) {
	if p.err != nil {
		return nil, p.err
	}
	c := p.c
	if c.closed || c.broken {
		return nil, ErrClosed
	}
	tags := p.queued
	p.queued = nil
	if len(tags) == 0 {
		return nil, nil
	}
	// Ship the batch from a goroutine while the response groups stream back:
	// an unbuffered transport (net.Pipe) rendezvouses writer and reader, so a
	// blocking batch write would deadlock against the server's first response.
	wbuf := append([]byte(nil), p.buf.Bytes()...)
	p.buf.Reset()
	werr := make(chan error, 1)
	go func() {
		_, err := c.nc.Write(wbuf)
		werr <- err
	}()
	// finish joins the writer. When the connection broke mid-read the writer
	// may be blocked forever on a dead pipe — skip the join; Close unblocks it.
	finish := func(results []*engine.Result, rerr error) ([]*engine.Result, error) {
		if c.broken {
			return results, rerr
		}
		if err := <-werr; err != nil {
			c.broken = true
			p.err = ErrPipeline
			if rerr == nil {
				rerr = fmt.Errorf("%w: %v", ErrClosed, err)
			}
		}
		return results, rerr
	}
	results := make([]*engine.Result, 0, len(tags))
	for i, want := range tags {
		res := &engine.Result{}
		got, err := c.readResponse(c.nc, res)
		if err != nil {
			if c.broken {
				// Stream integrity is gone; nothing left to drain.
				p.err = ErrPipeline
				return results, err
			}
			// Server-side statement failure: poison the pipeline, drain the
			// remaining groups so the connection's stream stays synced.
			p.err = ErrPipeline
			ferr := fmt.Errorf("%w: statement %d/%d: %v", ErrPipeline, i+1, len(tags), err)
			for range tags[i+1:] {
				if _, derr := c.readResponse(c.nc, &engine.Result{}); derr != nil && c.broken {
					return results, ferr
				}
			}
			return finish(results, ferr)
		}
		if got != want {
			c.broken = true
			p.err = ErrPipeline
			return results, fmt.Errorf("%w: response tag %d, want %d", ErrClosed, got, want)
		}
		results = append(results, res)
	}
	return finish(results, nil)
}

// toValues converts Go arguments to wire values.
func toValues(args []any) ([]sqlval.Value, error) {
	if len(args) == 0 {
		return nil, nil
	}
	vals := make([]sqlval.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case nil:
			vals[i] = sqlval.Null
		case int:
			vals[i] = sqlval.NewInt(int64(v))
		case int64:
			vals[i] = sqlval.NewInt(v)
		case float64:
			vals[i] = sqlval.NewFloat(v)
		case string:
			vals[i] = sqlval.NewString(v)
		case bool:
			vals[i] = sqlval.NewBool(v)
		case sqlval.Value:
			vals[i] = v
		default:
			return nil, fmt.Errorf("client: unsupported parameter type %T (argument %d)", a, i+1)
		}
	}
	return vals, nil
}
