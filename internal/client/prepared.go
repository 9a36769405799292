package client

import (
	"bytes"
	"errors"
	"fmt"

	"ldv/internal/engine"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
	"ldv/internal/wire"
)

// Prepared statements and pipelining — the protocol-v2 client surface.
// Prepare parses a statement once server-side; Stmt.Exec runs it with
// positional `?` arguments in a single round trip (Bind and Execute share
// one write, Bind being fire-and-forget). A Pipeline goes further and sends
// many executions in one write, then reads the streamed response groups back
// in order, matched by CommandComplete tag. Each execution is one call
// through the connection's request routine (client.go), exactly like a text
// Query: the interceptor chain sees it, and it has its own span.

// ErrPipeline is the typed error a pipeline returns once a queued execution
// has failed: like ErrClosed for connections, it poisons the Pipeline — the
// failed flush drains but discards every response after the failure, and
// later Queue/Flush calls fail immediately. The underlying connection stays
// usable (transport failures additionally poison it with ErrClosed). Match
// with errors.Is.
var ErrPipeline = errors.New("client: pipeline aborted")

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
// the connection. A replay-only session has no server to parse for it and
// parses locally; its executions are answered by the interceptor chain.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	if c.closed || c.broken {
		return nil, ErrClosed
	}
	c.stmtSeq++
	st := &Stmt{c: c, name: fmt.Sprintf("s%d", c.stmtSeq), sql: sql}
	if c.nc == nil {
		_, fp, n, err := sqlparse.ParsePrepared(sql)
		if err != nil {
			return nil, err
		}
		st.numParams, st.fingerprint = n, fp.String()
		return st, nil
	}
	var rp reply
	if err := c.roundTrip(wire.Parse{Name: st.name, SQL: sql}, &rp); err != nil {
		return nil, err
	}
	st.numParams, st.fingerprint = rp.parsed.NumParams, rp.parsed.Fingerprint
	return st, nil
}

// Exec runs the prepared statement with the given arguments in one round
// trip: a fire-and-forget Bind followed by an Execute, then one response
// group. Arguments may be Go ints, floats, strings, bools, nil, or
// sqlval.Value.
func (s *Stmt) Exec(args ...any) (*engine.Result, error) {
	cl, err := s.bind(args)
	if err != nil {
		return nil, err
	}
	return s.c.do(&cl)
}

// bind checks one execution's arguments — client-side, before any frame is
// sent or any interceptor runs — and returns it as a call.
func (s *Stmt) bind(args []any) (call, error) {
	if s.c.closed || s.c.broken {
		return call{}, ErrClosed
	}
	if s.closed {
		return call{}, fmt.Errorf("client: statement %s is closed", s.name)
	}
	vals, err := toValues(args)
	if err != nil {
		return call{}, err
	}
	if len(vals) != s.numParams {
		return call{}, fmt.Errorf("client: statement %s wants %d parameters, got %d", s.name, s.numParams, len(vals))
	}
	return call{info: QueryInfo{SQL: s.sql, Args: vals}, stmt: s}, nil
}

// Close discards the server-side statement (fire-and-forget).
func (s *Stmt) Close() error {
	c := s.c
	if s.closed || c.closed || c.broken {
		return nil
	}
	s.closed = true
	if c.nc == nil {
		return nil
	}
	if err := wire.Write(c.nc, wire.CloseStmt{Name: s.name}); err != nil {
		c.broken = true
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return nil
}

// Pipeline batches prepared-statement executions: Queue collects them, Flush
// ships them in one write and reads the response groups back in order, so N
// statements cost one round trip instead of N. A Pipeline is single-use per
// flush cycle but reusable after a successful Flush; it is not safe for
// concurrent use.
type Pipeline struct {
	c      *Conn
	queued []call
	err    error // sticky ErrPipeline once poisoned
}

// Pipeline starts an empty pipeline on the connection.
func (c *Conn) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Queue appends one execution of s to the pipeline. Nothing is sent, and no
// interceptor runs, until Flush.
func (p *Pipeline) Queue(s *Stmt, args ...any) error {
	if p.err != nil {
		return p.err
	}
	if s.c != p.c {
		return fmt.Errorf("client: statement %s belongs to another connection", s.name)
	}
	cl, err := s.bind(args)
	if err != nil {
		return err
	}
	p.queued = append(p.queued, cl)
	return nil
}

// Flush sends every queued execution in one write and collects their
// response groups, in queue order. On a server error the pipeline is
// poisoned: the results up to the failure are returned alongside an error
// wrapping ErrPipeline, and the remaining in-flight responses are drained to
// keep the connection usable — the server executed them, so the interceptor
// chain still sees them, but they are not returned. Transport failures
// poison the connection itself (ErrClosed).
func (p *Pipeline) Flush() ([]*engine.Result, error) {
	if p.err != nil {
		return nil, p.err
	}
	c := p.c
	if c.closed || c.broken {
		return nil, ErrClosed
	}
	calls := p.queued
	p.queued = nil
	if len(calls) == 0 {
		return nil, nil
	}
	var frames bytes.Buffer
	for i := range calls {
		calls[i].tag = uint64(i + 1)
		c.start(&calls[i], &frames)
	}
	// Ship the batch from a goroutine while the response groups stream back:
	// an unbuffered transport (net.Pipe) rendezvouses writer and reader, so a
	// blocking batch write would deadlock against the server's first response.
	var werr chan error
	if frames.Len() > 0 {
		werr = make(chan error, 1)
		go func() {
			_, err := c.nc.Write(frames.Bytes())
			werr <- err
		}()
	}
	results := make([]*engine.Result, 0, len(calls))
	var ferr error
	for i := range calls {
		res, err := c.finish(&calls[i])
		switch {
		case ferr != nil: // drained: executed and seen by the chain, not returned
		case c.broken:
			p.err, ferr = ErrPipeline, err
		case err != nil:
			p.err = ErrPipeline
			ferr = fmt.Errorf("%w: statement %d/%d: %v", ErrPipeline, i+1, len(calls), err)
		default:
			results = append(results, res)
		}
	}
	// Join the writer. When the connection broke mid-read it may be blocked
	// forever on a dead pipe — skip the join; Close unblocks it.
	if werr != nil && !c.broken {
		if err := <-werr; err != nil {
			c.broken, p.err = true, ErrPipeline
			if ferr == nil {
				ferr = fmt.Errorf("%w: %v", ErrClosed, err)
			}
		}
	}
	return results, ferr
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
