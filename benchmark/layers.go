package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ldv/internal/client"
	"ldv/internal/engine"
	"ldv/internal/plan"
	"ldv/internal/server"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
	"ldv/internal/wire"
)

// This file is what the two SQL workloads share: the operation model, one
// executor per depth (client library, raw frames, in-process session, parser,
// planner, wire codec, bare transport), and the accounting that turns the
// depths into per-layer self times. Every depth is timed from out here,
// around calls into a layer's public functions.

// opKind says which protocol path an operation takes.
type opKind uint8

const (
	kText     opKind = iota // one Query frame
	kPrepared               // Bind+Execute of a statement prepared at connect
	kPipe                   // 16 × Bind+Execute in one flush
	kAdhoc                  // Prepare + Exec + Close of a one-off shape
	kTxn                    // BEGIN, two text updates, COMMIT
	kAsOf                   // text Query pinned to the target's AS OF tick
)

// op is one operation of a pre-generated stream.
type op struct {
	kind  opKind
	class string   // metric class (text_point, …, or the olap query label)
	write bool     // counts toward write_* rather than read_*
	sql   []string // the text statements (kText/kAsOf: 1, kTxn: 4, kAdhoc: the shape)
	stmt  int      // kPrepared/kPipe: index into the prepared set
	args  [][]int  // one argument list per execution (kPipe: 16)
	stmts int      // statements this op completes (a pipe16 flush counts 16)
}

// target is one database under test with its server; identically seeded
// targets receive identical op streams at different depths.
type target struct {
	db       *engine.DB
	srv      *server.Server
	prepared []string      // SQL of the statements prepared at connect
	pin      atomic.Uint64 // AS OF tick, re-pinned after each vacuum
	conns    sync.WaitGroup
}

// Connect makes target a client.Dialer over net.Pipe, as internal/bench does.
func (t *target) Connect(string) (net.Conn, error) {
	c, s := net.Pipe()
	t.conns.Add(1)
	go func() {
		defer t.conns.Done()
		t.srv.HandleConn(s)
	}()
	return c, nil
}

// checkFunc inspects one statement's result; it returns a non-empty reason
// when the output is wrong.
type checkFunc func(o *op, exec int, res *engine.Result) string

// ---- depth 1: the client library ----

// clientConn is a client.Conn with the target's statements prepared.
type clientConn struct {
	t     *target
	conn  *client.Conn
	stmts []*client.Stmt
}

func dialClient(t *target, d client.Dialer, proc string) (*clientConn, error) {
	// Request tracing off, as in internal/bench's wire experiments: the SQL
	// workloads measure the statement path, not the flight recorder.
	conn, err := client.Dial(d, "pipe", client.Options{Proc: proc, NoTrace: true})
	if err != nil {
		return nil, err
	}
	cc := &clientConn{t: t, conn: conn}
	for _, sql := range t.prepared {
		st, err := conn.Prepare(sql)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("prepare %q: %w", sql, err)
		}
		cc.stmts = append(cc.stmts, st)
	}
	return cc, nil
}

func anyArgs(a []int) []any {
	out := make([]any, len(a))
	for i, v := range a {
		out[i] = v
	}
	return out
}

// exec runs one op through the client library and returns a failure reason
// ("" when the op succeeded and its output checked out).
func (cc *clientConn) exec(o *op, check checkFunc) string {
	one := func(res *engine.Result, err error) string {
		if err != nil {
			return err.Error()
		}
		return check(o, 0, res)
	}
	switch o.kind {
	case kText:
		return one(cc.conn.Query(o.sql[0]))
	case kAsOf:
		return one(cc.conn.QueryAt(o.sql[0], cc.t.pin.Load()))
	case kPrepared:
		return one(cc.stmts[o.stmt].Exec(anyArgs(o.args[0])...))
	case kPipe:
		p := cc.conn.Pipeline()
		for _, a := range o.args {
			if err := p.Queue(cc.stmts[o.stmt], anyArgs(a)...); err != nil {
				return err.Error()
			}
		}
		results, err := p.Flush()
		if err != nil {
			return err.Error()
		}
		for i, res := range results {
			if why := check(o, i, res); why != "" {
				return why
			}
		}
		return ""
	case kAdhoc:
		st, err := cc.conn.Prepare(o.sql[0])
		if err != nil {
			return err.Error()
		}
		why := one(st.Exec(anyArgs(o.args[0])...))
		if err := st.Close(); err != nil && why == "" {
			why = err.Error()
		}
		return why
	case kTxn:
		for _, sql := range o.sql {
			if _, err := cc.conn.Query(sql); err != nil {
				return err.Error()
			}
		}
		return ""
	}
	return "unknown op kind"
}

// ---- depth 2: raw frames, no client library ----

// rawConn speaks pre-encoded frames to the server and reads raw bytes back,
// looking only at frame headers to find each response group's Ready.
type rawConn struct {
	t  *target
	nc net.Conn
	br *bufio.Reader
}

func encode(msgs ...wire.Message) []byte {
	var buf bytes.Buffer
	for _, m := range msgs {
		if err := wire.Write(&buf, m); err != nil {
			panic(err) // a bytes.Buffer cannot fail
		}
	}
	return buf.Bytes()
}

func dialRaw(t *target) (*rawConn, error) {
	nc, err := t.Connect("pipe")
	if err != nil {
		return nil, err
	}
	rc := &rawConn{t: t, nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
	if err := rc.roundTrip(encode(wire.Startup{Proc: "bench:raw"}), 1); err != nil {
		nc.Close()
		return nil, err
	}
	for i, sql := range t.prepared {
		if err := rc.roundTrip(encode(wire.Parse{Name: fmt.Sprintf("s%d", i+1), SQL: sql}), 1); err != nil {
			nc.Close()
			return nil, err
		}
	}
	return rc, nil
}

func (rc *rawConn) close() {
	_, _ = rc.nc.Write(encode(wire.Terminate{})) // best effort; Close follows
	rc.nc.Close()
}

// roundTrip writes req and skips response frames until it has seen the
// given number of Ready frames. An Error frame fails the op.
func (rc *rawConn) roundTrip(req []byte, readies int) error {
	if _, err := rc.nc.Write(req); err != nil {
		return err
	}
	var failed error
	var header [5]byte
	for readies > 0 {
		if _, err := io.ReadFull(rc.br, header[:]); err != nil {
			return err
		}
		size := int(header[1])<<24 | int(header[2])<<16 | int(header[3])<<8 | int(header[4])
		switch header[0] {
		case wire.TagReady:
			readies--
		case wire.TagError:
			failed = fmt.Errorf("server error frame")
		}
		if _, err := rc.br.Discard(size); err != nil {
			return err
		}
	}
	return failed
}

// rawFrames pre-encodes an op's requests: one byte slice per round trip.
// AS OF ops are encoded at execution time, when the pin is known.
func rawFrames(o *op) [][]byte {
	bind := func(stmt string, a []int, tag uint64) []byte {
		return encode(wire.Bind{Stmt: stmt, Args: intValues(a)}, wire.Execute{Stmt: stmt, Tag: tag})
	}
	switch o.kind {
	case kText:
		return [][]byte{encode(wire.Query{SQL: o.sql[0]})}
	case kPrepared:
		return [][]byte{bind(fmt.Sprintf("s%d", o.stmt+1), o.args[0], 0)}
	case kPipe:
		var all []byte
		for i, a := range o.args {
			all = append(all, bind(fmt.Sprintf("s%d", o.stmt+1), a, uint64(i+1))...)
		}
		return [][]byte{all}
	case kAdhoc:
		return [][]byte{
			encode(wire.Parse{Name: "adhoc", SQL: o.sql[0]}),
			append(bind("adhoc", o.args[0], 0), encode(wire.CloseStmt{Name: "adhoc"})...),
		}
	case kTxn:
		out := make([][]byte, len(o.sql))
		for i, sql := range o.sql {
			out[i] = encode(wire.Query{SQL: sql})
		}
		return out
	}
	return nil
}

func (rc *rawConn) exec(o *op, frames [][]byte) error {
	if o.kind == kAsOf {
		frames = [][]byte{encode(wire.Query{SQL: o.sql[0], AsOf: rc.t.pin.Load()})}
	}
	for _, f := range frames {
		readies := 1
		if o.kind == kPipe {
			readies = len(o.args)
		}
		if err := rc.roundTrip(f, readies); err != nil {
			return err
		}
	}
	return nil
}

// ---- depth 3: an in-process engine.Session ----

type sessConn struct {
	t     *target
	sess  *engine.Session
	stmts []*engine.PreparedStmt
}

func openSession(t *target) (*sessConn, error) {
	sc := &sessConn{t: t, sess: t.db.NewSession()}
	for _, sql := range t.prepared {
		ps, err := t.db.Prepare(sql)
		if err != nil {
			return nil, err
		}
		sc.stmts = append(sc.stmts, ps)
	}
	return sc, nil
}

func intValues(a []int) []sqlval.Value {
	vals := make([]sqlval.Value, len(a))
	for i, v := range a {
		vals[i] = sqlval.NewInt(int64(v))
	}
	return vals
}

func (sc *sessConn) exec(o *op) error {
	opts := engine.ExecOptions{Proc: "bench:session"}
	switch o.kind {
	case kText:
		_, err := sc.sess.Exec(o.sql[0], opts)
		return err
	case kAsOf:
		opts.AsOf = sc.t.pin.Load()
		_, err := sc.sess.Exec(o.sql[0], opts)
		return err
	case kPrepared, kPipe:
		for _, a := range o.args {
			if _, err := sc.sess.ExecPrepared(sc.stmts[o.stmt], intValues(a), opts); err != nil {
				return err
			}
		}
		return nil
	case kAdhoc:
		ps, err := sc.t.db.Prepare(o.sql[0])
		if err != nil {
			return err
		}
		_, err = sc.sess.ExecPrepared(ps, intValues(o.args[0]), opts)
		return err
	case kTxn:
		for _, sql := range o.sql {
			if _, err := sc.sess.Exec(sql, opts); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown op kind")
}

// ---- depths 4 and 5: the parser and the planner ----

// parsedTexts lists the statement texts the server parses for this op:
// prepared executions parse nothing (that was paid at connect).
func parsedTexts(o *op) []string {
	switch o.kind {
	case kText, kAsOf, kAdhoc, kTxn:
		return o.sql
	}
	return nil
}

// benchCatalog is the benchmark-side plan.Catalog, rebuilt from the public
// surface: row counts and columns from db.Table, indexes from the
// ldv_stat_indexes view. The view has no distinct-key count, so Distinct is
// taken as the entry count (exact for the unique keys these workloads index
// and otherwise the planner's most index-friendly assumption).
type benchCatalog map[string]plan.TableStats

func (c benchCatalog) TableStats(name string) (plan.TableStats, bool) {
	ts, ok := c[name]
	return ts, ok
}

func buildCatalog(db *engine.DB) (benchCatalog, error) {
	cat := benchCatalog{}
	for _, name := range db.TableNames() {
		meta, err := db.Table(name)
		if err != nil {
			return nil, err
		}
		cols := append(meta.Schema.Names(), engine.ColProvRowID, engine.ColProvV, engine.ColProvP, engine.ColProvUsedBy)
		cat[name] = plan.TableStats{Rows: int64(meta.Rows), Columns: cols}
	}
	res, err := db.Exec("SELECT name, table_name, column_name, kind, entries FROM ldv_stat_indexes", engine.ExecOptions{})
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		ts := cat[row[1].Str()]
		ts.Indexes = append(ts.Indexes, plan.IndexMeta{
			Name: row[0].Str(), Column: row[2].Str(), Kind: row[3].Str(),
			Entries: row[4].Int(), Distinct: row[4].Int(),
		})
		cat[row[1].Str()] = ts
	}
	return cat, nil
}

// ---- depth 6: the wire codec over recorded frames ----

// recordingConn captures every byte a client connection writes and reads,
// and the sequence of (bytes written, bytes read back) exchanges, so the
// codec can be timed over exactly the traffic the ops produced and a bare
// echo can replay the same transport pattern with no server behind it.
type recordingConn struct {
	net.Conn
	mu        sync.Mutex // a pipeline flush writes from its own goroutine
	out, in   bytes.Buffer
	exchanges []exchange
}

type exchange struct{ wrote, read int }

func (rc *recordingConn) Write(p []byte) (int, error) {
	n, err := rc.Conn.Write(p)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.out.Write(p[:n])
	// wire.Write sends a frame as two writes; extend the open exchange until
	// something is read back.
	if k := len(rc.exchanges); k > 0 && rc.exchanges[k-1].read == 0 {
		rc.exchanges[k-1].wrote += n
	} else {
		rc.exchanges = append(rc.exchanges, exchange{wrote: n})
	}
	return n, err
}

func (rc *recordingConn) Read(p []byte) (int, error) {
	n, err := rc.Conn.Read(p)
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.in.Write(p[:n])
	if k := len(rc.exchanges); k > 0 {
		rc.exchanges[k-1].read += n
	}
	return n, err
}

// recordingDialer hands out one recordingConn on top of the target's pipe.
type recordingDialer struct {
	t    *target
	conn *recordingConn
}

func (d *recordingDialer) Connect(addr string) (net.Conn, error) {
	nc, err := d.t.Connect(addr)
	if err != nil {
		return nil, err
	}
	d.conn = &recordingConn{Conn: nc}
	return d.conn, nil
}

// codecTimes decodes every frame in data with wire.Read and re-encodes it
// with wire.Write, timing each direction.
func codecTimes(data []byte) (enc, dec time.Duration, frames int, err error) {
	r := bytes.NewReader(data)
	for r.Len() > 0 {
		t0 := time.Now()
		msg, rerr := wire.Read(r)
		dec += time.Since(t0)
		if rerr != nil {
			return enc, dec, frames, fmt.Errorf("decode recorded frame %d: %w", frames, rerr)
		}
		t0 = time.Now()
		werr := wire.Write(io.Discard, msg)
		enc += time.Since(t0)
		if werr != nil {
			return enc, dec, frames, werr
		}
		frames++
	}
	return enc, dec, frames, nil
}

// echoTime replays the recorded exchange pattern over a bare net.Pipe with a
// goroutine that only reads and writes the same byte counts: the transport
// and goroutine hand-off time that belongs to no module.
func echoTime(exchanges []exchange) (time.Duration, error) {
	c, s := net.Pipe()
	maxLen := 0
	for _, e := range exchanges {
		if e.wrote > maxLen {
			maxLen = e.wrote
		}
		if e.read > maxLen {
			maxLen = e.read
		}
	}
	errc := make(chan error, 1) // the echo goroutine's single result
	go func() {
		buf := make([]byte, maxLen)
		for _, e := range exchanges {
			if _, err := io.ReadFull(s, buf[:e.wrote]); err != nil {
				errc <- err
				return
			}
			// A fire-and-forget request (CloseStmt) has no reply, and a
			// zero-length pipe write would wait for a reader that never comes.
			if e.read == 0 {
				continue
			}
			if _, err := s.Write(buf[:e.read]); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	buf := make([]byte, maxLen)
	br := bufio.NewReaderSize(c, 64<<10)
	t0 := time.Now()
	for _, e := range exchanges {
		if _, err := c.Write(buf[:e.wrote]); err != nil {
			c.Close()
			return 0, err
		}
		if _, err := io.ReadFull(br, buf[:e.read]); err != nil {
			c.Close()
			return 0, err
		}
	}
	d := time.Since(t0)
	err := <-errc
	c.Close()
	s.Close()
	return d, err
}

// ---- putting the depths together ----

// layerSums are the summed times of each depth over one op stream.
type layerSums struct {
	ops, stmts                       int
	client, raw, session             time.Duration
	parse, plan                      time.Duration
	encReq, decReq, encResp, decResp time.Duration
	echo                             time.Duration
	bytes, frames                    int
	clientByClass, sessionByClass    map[string][]float64 // µs per statement
	parsed, planned                  int
	failures                         []string
}

// layerHooks lets a workload react to its own op classes at every depth (the
// OLTP vacuum op re-pins the target's AS OF tick) and read counters around
// one depth. Depths count from 1 (client) to 3 (session); nil hooks are
// skipped.
type layerHooks struct {
	beforeOp  func(depth int, t *target, o *op)
	afterOp   func(depth int, t *target, o *op)
	depthDone func(depth int, t *target)
}

// runLayers sends the same op stream down every depth, each on its own
// target from mk (identically seeded; static workloads may hand out the same
// one), and records the nested spans of every op.
func runLayers(rec *recorder, ops []op, mk func(depth int) (*target, error), check checkFunc, hooks layerHooks) (*layerSums, error) {
	ls := &layerSums{ops: len(ops), clientByClass: map[string][]float64{}, sessionByClass: map[string][]float64{}}
	before, after, done := hooks.beforeOp, hooks.afterOp, hooks.depthDone
	if before == nil {
		before = func(int, *target, *op) {}
	}
	if after == nil {
		after = func(int, *target, *op) {}
	}
	if done == nil {
		done = func(int, *target) {}
	}
	clientOp := make([]time.Duration, len(ops))
	rawOp := make([]time.Duration, len(ops))
	sessOp := make([]time.Duration, len(ops))

	// Depth 1: client library over a recording connection.
	t, err := mk(1)
	if err != nil {
		return nil, err
	}
	rd := &recordingDialer{t: t}
	cc, err := dialClient(t, rd, "bench:0")
	if err != nil {
		return nil, err
	}
	rd.conn.out.Reset()
	rd.conn.in.Reset()
	rd.conn.exchanges = nil
	starts := make([]time.Time, len(ops))
	runtime.GC()
	for i := range ops {
		o := &ops[i]
		before(1, t, o)
		starts[i] = time.Now()
		why := cc.exec(o, check)
		d := time.Since(starts[i])
		if why != "" {
			ls.failures = append(ls.failures, fmt.Sprintf("client depth, op %d (%s): %s", i, o.class, why))
		}
		after(1, t, o)
		clientOp[i] = d
		ls.client += d
		ls.stmts += o.stmts
		ls.clientByClass[o.class] = append(ls.clientByClass[o.class], us(d)/float64(o.stmts))
	}
	reqBytes := append([]byte(nil), rd.conn.out.Bytes()...)
	respBytes := append([]byte(nil), rd.conn.in.Bytes()...)
	exchanges := rd.conn.exchanges
	cc.conn.Close()
	t.conns.Wait()
	done(1, t)

	// Depth 2: the same requests as pre-encoded frames.
	if t, err = mk(2); err != nil {
		return nil, err
	}
	rc, err := dialRaw(t)
	if err != nil {
		return nil, err
	}
	frames := make([][][]byte, len(ops))
	for i := range ops {
		frames[i] = rawFrames(&ops[i])
	}
	runtime.GC()
	for i := range ops {
		o := &ops[i]
		t0 := time.Now()
		err := rc.exec(o, frames[i])
		d := time.Since(t0)
		if err != nil {
			ls.failures = append(ls.failures, fmt.Sprintf("raw depth, op %d (%s): %v", i, o.class, err))
		}
		after(2, t, o)
		rawOp[i] = d
		ls.raw += d
	}
	rc.close()
	t.conns.Wait()
	done(2, t)

	// Depth 3: in-process session.
	if t, err = mk(3); err != nil {
		return nil, err
	}
	sc, err := openSession(t)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	for i := range ops {
		o := &ops[i]
		t0 := time.Now()
		err := sc.exec(o)
		d := time.Since(t0)
		if err != nil {
			ls.failures = append(ls.failures, fmt.Sprintf("session depth, op %d (%s): %v", i, o.class, err))
		}
		after(3, t, o)
		sessOp[i] = d
		ls.session += d
		ls.sessionByClass[o.class] = append(ls.sessionByClass[o.class], us(d)/float64(o.stmts))
	}
	if err := sc.sess.Close(); err != nil {
		return nil, err
	}
	done(3, t)

	// Depths 4 and 5: parse and plan every statement text the server parsed.
	cat, err := buildCatalog(t.db)
	if err != nil {
		return nil, err
	}
	parseOp := make([]time.Duration, len(ops))
	planOp := make([]time.Duration, len(ops))
	for i := range ops {
		for _, sql := range parsedTexts(&ops[i]) {
			var stmt sqlparse.Statement
			var perr error
			t0 := time.Now()
			if ops[i].kind == kAdhoc { // the shape has `?` parameters
				stmt, _, _, perr = sqlparse.ParsePrepared(sql)
			} else {
				stmt, _, perr = sqlparse.ParseFingerprinted(sql)
			}
			d := time.Since(t0)
			if perr != nil {
				return nil, fmt.Errorf("parse %q: %w", sql, perr)
			}
			parseOp[i] += d
			ls.parsed++
			t0 = time.Now()
			tree := plan.PlanStatement(cat, stmt)
			d = time.Since(t0)
			if tree != nil {
				planOp[i] += d
				ls.planned++
			}
		}
		ls.parse += parseOp[i]
		ls.plan += planOp[i]
	}

	// Depth 6: codec over the recorded traffic, then the bare transport.
	var n int
	if ls.encReq, ls.decReq, n, err = codecTimes(reqBytes); err != nil {
		return nil, err
	}
	ls.frames = n
	if ls.encResp, ls.decResp, n, err = codecTimes(respBytes); err != nil {
		return nil, err
	}
	ls.frames += n
	ls.bytes = len(reqBytes) + len(respBytes)
	if ls.echo, err = echoTime(exchanges); err != nil {
		return nil, err
	}

	// Spans: per op, client ⊃ raw ⊃ session ⊃ {parse, plan}. The inner depths
	// ran on other targets, so they are laid inside the client span with
	// their measured lengths (clipped to the parent, which noise can
	// undercut); the codec and the echo are stream totals.
	for i := range ops {
		o := &ops[i]
		c := rec.add("client."+o.class, -1, i, starts[i], clientOp[i])
		raw := minDur(rawOp[i], clientOp[i])
		r := rec.add("server.raw", c, i, starts[i], raw)
		sess := minDur(sessOp[i], raw)
		s := rec.add("engine.session", r, i, starts[i], sess)
		p := minDur(parseOp[i], sess)
		rec.add("sqlparse.parse", s, i, starts[i], p)
		rec.add("plan.plan", s, i, starts[i].Add(p), minDur(planOp[i], sess-p))
	}
	if len(ops) > 0 {
		end := starts[len(ops)-1].Add(clientOp[len(ops)-1])
		rec.add("wire.encode", -1, -1, end, ls.encReq+ls.encResp)
		rec.add("wire.decode", -1, -1, end, ls.decReq+ls.decResp)
		rec.add("transport.echo", -1, -1, end, ls.echo)
	}
	return ls, nil
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

// report turns the sums into the client/server/wire/sqlparse/plan metrics
// and the share.* accounting. Self times are per op (means over the stream).
func (ls *layerSums) report(res *result) {
	n := float64(ls.ops)
	if n == 0 {
		return
	}
	per := func(d time.Duration) float64 { return us(d) / n }
	// The client encodes requests and decodes responses; the server does the
	// reverse. The raw depth pays only the server's half.
	clientCodec := ls.encReq + ls.decResp
	serverCodec := ls.decReq + ls.encResp
	self := map[string]time.Duration{
		"client":   ls.client - ls.raw - clientCodec,
		"server":   ls.raw - ls.session - serverCodec - ls.echo,
		"wire":     clientCodec + serverCodec,
		"sqlparse": ls.parse,
		"plan":     ls.plan,
		"engine":   ls.session - ls.parse - ls.plan,
	}
	res.set("client.self_us", single(per(self["client"]), "us"))
	res.set("server.raw_roundtrip_us", single(per(ls.raw), "us"))
	res.set("server.self_us", single(per(self["server"]), "us"))
	res.set("wire.encode_us", single(per(ls.encReq+ls.encResp), "us"))
	res.set("wire.decode_us", single(per(ls.decReq+ls.decResp), "us"))
	res.set("wire.bytes_per_op", single(float64(ls.bytes)/n, "bytes"))
	res.set("wire.msgs_per_op", single(float64(ls.frames)/n, "count"))
	res.set("sqlparse.parse_us", single(ratio(us(ls.parse), float64(ls.parsed)), "us"))
	res.set("plan.plan_us", single(ratio(us(ls.plan), float64(ls.planned)), "us"))
	// Shares of the summed client round-trip time. A self time that noise
	// pushed below zero counts as zero; what no layer claims — the bare
	// transport above all — is unattributed.
	attributed := 0.0
	for _, layer := range shareLayers {
		if layer == "unattributed" {
			continue
		}
		s := ratio(float64(self[layer]), float64(ls.client))
		if s < 0 {
			s = 0
		}
		attributed += s
		res.set("share."+layer, single(s, "ratio"))
	}
	res.set("share.unattributed", single(1-attributed, "ratio"))
}
