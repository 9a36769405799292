package engine

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"ldv/internal/obs"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Concurrency model (see DESIGN.md "Concurrency model" for the long form):
//
//   - Every session owns at most one open *Txn. Transactions are registered
//     in the DB's active-transaction set; tuple versions are tagged with the
//     writing transaction's id permanently, so COMMIT is O(1) — it only
//     deregisters the id. ROLLBACK replays the undo log in reverse.
//   - A snapshot is a logical-clock timestamp plus a copy of the active set
//     (PostgreSQL's xip-list scheme). A version is visible when it was begun
//     by the reader itself, or begun at-or-before the snapshot time by a
//     transaction not active at snapshot capture — and not end-marked under
//     the same rule. Readers therefore never see uncommitted or torn writes
//     and never block on writers.
//   - Lock hierarchy: the DB catalog mutex (tables map, short critical
//     sections only) is acquired before any table lock and never while one
//     is held. Statements compute their full table footprint from the AST up
//     front and take per-table RWMutexes in sorted name order (readers
//     shared, writers exclusive), which makes lock acquisition deadlock-free.

// snapshot is an immutable logical-clock cut of the database.
type snapshot struct {
	ts     uint64             // logical time of the cut
	active map[int64]struct{} // transactions uncommitted at the cut
	self   int64              // reading transaction's own id (0 = none)

	// asOf marks a historical (AS OF) cut. The only rule change: rows whose
	// transaction tag was stripped by recovery or bulk load (txnID 0) are
	// bounded by their write stamp like everyone else, instead of being
	// unconditionally begin-visible — a historical cut pins strictly by time.
	asOf bool

	// selfBound, when non-zero, narrows the reader's own writes to those made
	// before the given tick. Reenactment replays statement k of a committed
	// transaction with self = the original id and selfBound = statement k's
	// original start tick, so the replay sees exactly the prefix of the
	// transaction's own writes that statement k saw.
	selfBound uint64
}

// visible reports whether a tuple version is part of the snapshot:
// begin ≤ snapshot < end, where writes of transactions active at the cut
// (other than the reader's own) sit beyond the horizon on both bounds.
func (s snapshot) visible(r *storedRow) bool {
	if s.self == 0 || r.txnID != s.self {
		if _, uncommitted := s.active[r.txnID]; uncommitted {
			return false
		}
		// Preloaded/bulk rows (txnID 0) are committed by definition and may
		// carry versions from a previous database life (LoadDir, RestoreRows)
		// that post-date this clock — they are always begin-visible, except
		// under a historical cut, which trusts write stamps only.
		if (r.txnID != 0 || s.asOf) && r.version > s.ts {
			return false
		}
	} else if s.selfBound != 0 && r.version >= s.selfBound {
		return false // reenactment: the original statement had not written this yet
	}
	if r.end == 0 {
		return true
	}
	if s.self != 0 && r.endTxn == s.self {
		if s.selfBound != 0 && r.end >= s.selfBound {
			return true // reenactment: superseded only by a later statement
		}
		return false // the reader itself superseded/deleted it
	}
	if _, uncommitted := s.active[r.endTxn]; uncommitted {
		return true // end mark not committed at the cut
	}
	return r.end > s.ts
}

// Txn is one session's open transaction: its identity in the active set,
// the snapshot its reads run against, the undo log its rollback replays,
// and the redo log its commit appends to the WAL.
type Txn struct {
	id   int64
	db   *DB
	snap snapshot
	undo []undoEntry
	redo []redoEntry

	// hist records the transaction's statement stream (SQL, bound params,
	// start/end ticks, row counts) for reenactment. It is committed into the
	// DB's transaction history — and, when the transaction wrote anything,
	// appended to its WAL record as walStmt entries — at commit.
	hist []StmtRecord
}

// recordStmt appends one executed statement to the transaction's reenactment
// history.
func (x *Txn) recordStmt(stmt sqlparse.Statement, res *Result, params []sqlval.Value) {
	rows := res.RowsAffected
	if len(res.Rows) > 0 {
		rows = len(res.Rows)
	}
	x.hist = append(x.hist, StmtRecord{
		SQL:    stmt.String(),
		Kind:   stmtKindName(stmt),
		Start:  res.Start,
		End:    x.db.ClockNow(),
		Rows:   rows,
		Params: append([]sqlval.Value(nil), params...),
	})
}

// logRedo records one redo action for the WAL record this transaction
// appends at commit. Statement-level rollback truncates back to the mark
// its caller captured, mirroring the undo log.
func (x *Txn) logRedo(e redoEntry) {
	x.redo = append(x.redo, e)
}

// undoEntry is one compensating action together with the table it mutates,
// so rollback can assemble its lock set.
type undoEntry struct {
	table *Table
	fn    func() error
}

func (x *Txn) logUndo(t *Table, fn func() error) {
	x.undo = append(x.undo, undoEntry{table: t, fn: fn})
}

// undoFrom applies the undo entries at and after mark, newest first. The
// caller must hold the write locks of every table those entries touch
// (statement-level rollback runs under the failing statement's own locks).
func (x *Txn) undoFrom(mark int) error {
	var firstErr error
	for i := len(x.undo) - 1; i >= mark; i-- {
		if err := x.undo[i].fn(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("rollback: %w", err)
		}
	}
	x.undo = x.undo[:mark]
	return firstErr
}

// rollback undoes the whole transaction, acquiring the write locks of every
// table in the undo log (sorted, deduplicated), and deregisters it.
func (x *Txn) rollback() error {
	tabs := map[string]*Table{}
	for _, e := range x.undo {
		tabs[e.table.Name] = e.table
	}
	names := make([]string, 0, len(tabs))
	for n := range tabs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tabs[n].mu.Lock()
	}
	err := x.undoFrom(0)
	for i := len(names) - 1; i >= 0; i-- {
		tabs[names[i]].mu.Unlock()
	}
	x.db.endTxn(x.id)
	return err
}

// beginTxn registers a new transaction and captures its snapshot. The
// registration happens before the snapshot tick, so any other snapshot taken
// from then on either lists the transaction as active or post-dates every
// version it will write — both exclude its uncommitted writes.
func (db *DB) beginTxn() *Txn {
	db.txnMu.Lock()
	db.nextTxn++
	id := db.nextTxn
	db.activeTxns[id] = 0 // snapshot ts recorded below, once captured
	db.txnMu.Unlock()
	gTxnsActive.Add(1)
	x := &Txn{id: id, db: db, snap: db.takeSnapshot(id)}
	// Publish the snapshot timestamp: vacuum must not prune versions this
	// transaction can still see, and treats the interim zero as "unknown,
	// defer" so there is no window where the bound is unprotected.
	db.txnMu.Lock()
	if _, ok := db.activeTxns[id]; ok {
		db.activeTxns[id] = x.snap.ts
	}
	db.txnMu.Unlock()
	return x
}

// endTxn removes a transaction from the active set: the commit (or
// post-rollback cleanup) step. Version tags stay on the rows; committedness
// is exactly "no longer active".
func (db *DB) endTxn(id int64) {
	db.txnMu.Lock()
	delete(db.activeTxns, id)
	db.txnMu.Unlock()
	gTxnsActive.Add(-1)
}

// endTxnCommitted is endTxn for the commit path: in the same critical
// section that flips the transaction visible, its commit timestamp is
// recorded so historical (AS OF) snapshots can classify it. Returns the
// commit tick.
func (db *DB) endTxnCommitted(id int64) uint64 {
	cts := db.clock.Tick()
	db.txnMu.Lock()
	delete(db.activeTxns, id)
	db.committedTs[id] = cts
	if len(db.committedTs) > committedTsCap {
		db.pruneCommittedTsLocked()
	}
	db.txnMu.Unlock()
	gTxnsActive.Add(-1)
	return cts
}

// txnActive reports whether a transaction is currently uncommitted (the
// write path's first-updater-wins conflict check reads the *current* state,
// not a snapshot).
func (db *DB) txnActive(id int64) bool {
	if id == 0 {
		return false
	}
	db.txnMu.RLock()
	_, ok := db.activeTxns[id]
	db.txnMu.RUnlock()
	return ok
}

// takeSnapshot captures a logical-clock cut. Ticking before copying the
// active set is what makes the cut consistent: a transaction missing from
// the copy either committed (visible, correctly) or registered after the
// tick, in which case all its writes post-date ts.
func (db *DB) takeSnapshot(self int64) snapshot {
	ts := db.clock.Tick()
	db.txnMu.RLock()
	active := make(map[int64]struct{}, len(db.activeTxns))
	for id := range db.activeTxns {
		active[id] = struct{}{}
	}
	db.txnMu.RUnlock()
	return snapshot{ts: ts, active: active, self: self}
}

// takeSnapshotAsOf captures a historical cut at tick t: the regular
// visibility rules, with every transaction that committed after t classified
// as still in flight (its writes and end marks land beyond the cut on both
// bounds). Commit timestamps come from the in-memory registry kept since
// startup; rows recovered from a previous database life lost their
// transaction tags, so for them the asOf flag falls back to pure write-stamp
// bounds.
func (db *DB) takeSnapshotAsOf(t uint64) snapshot {
	db.txnMu.RLock()
	active := make(map[int64]struct{}, len(db.activeTxns))
	for id := range db.activeTxns {
		active[id] = struct{}{}
	}
	for id, cts := range db.committedTs {
		if cts > t {
			active[id] = struct{}{}
		}
	}
	db.txnMu.RUnlock()
	return snapshot{ts: t, active: active, asOf: true}
}

// Session is one client's statement stream: it owns the open transaction (if
// any) and serializes the statements of that one client. Different sessions
// execute concurrently.
type Session struct {
	db *DB
	mu sync.Mutex

	txn *Txn

	// ws is the session's wait/ASH publication surface (nil when the
	// session is not registered with the observability layer — library
	// embedding, tests). Set once by SetWaitState before serving
	// statements; obs.SessionState methods are nil-safe.
	ws *obs.SessionState
}

// SetWaitState attaches the session's observability publication handle
// (from obs.RegisterSession). Call before executing statements; the engine
// publishes statement, transaction, and wait state through it.
func (s *Session) SetWaitState(ws *obs.SessionState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ws = ws
}

// NewSession opens an independent session on the database.
func (db *DB) NewSession() *Session {
	return &Session{db: db}
}

// InTxn reports whether the session has an open transaction.
func (s *Session) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn != nil
}

// Close ends the session, rolling back any open transaction so an abandoned
// connection cannot pin the active set (and with it every snapshot horizon).
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.txn == nil {
		return nil
	}
	err := s.txn.rollback()
	s.txn = nil
	s.ws.SetTxn(0)
	mTxnRollbacks.Inc()
	return err
}

// Exec prepares and executes a single SQL statement on this session, binding
// opts.Params to its placeholders.
func (s *Session) Exec(sql string, opts ExecOptions) (*Result, error) {
	ps, err := PrepareStatement(sql)
	if err != nil {
		return nil, err
	}
	return s.ExecPrepared(ps, opts.Params, opts)
}

// ExecScript executes a semicolon-separated script, stopping at the first
// error. The whole script must parse before anything runs. Placeholders are
// numbered across the script, so opts.Params holds exactly one value per `?`
// in the script and every statement is bound against all of them. Each
// statement runs from the AST the script parse produced, fingerprinted from
// its canonical rendering.
func (s *Session) ExecScript(sql string, opts ExecOptions) ([]*Result, error) {
	t0 := time.Now()
	stmts, nparams, err := sqlparse.ParseScript(sql)
	hParse.Observe(time.Since(t0))
	if err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(stmts))
	for _, st := range stmts {
		text := st.String()
		ps := newPrepared(st, sqlparse.ComputeFingerprint(text), nparams, text, 0)
		r, err := s.ExecPrepared(ps, opts.Params, opts)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// ExecPrepared executes a statement with the given parameter values — the
// one execute entry: every statement, however it arrived, runs here once and
// is recorded here once.
func (s *Session) ExecPrepared(ps *PreparedStmt, args []sqlval.Value, opts ExecOptions) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	db := s.db
	opts.Params, opts.prep = args, ps
	t0 := time.Now()
	res := &Result{StmtID: db.newStmtID(), Start: db.clock.Tick(), Fingerprint: ps.info.Fingerprint}
	if opts.Span != nil {
		res.TraceID = opts.Span.TraceID().String()
	}
	s.ws.StartStatement(&ps.info, res.TraceID, t0)
	err := s.execute(ps, opts, res)
	res.End = db.clock.Tick()
	total := time.Since(t0)

	// The finish step: the one place an execution is written to the metrics,
	// the per-fingerprint store behind ldv_stat_statements, and the session's
	// live record. Exec time is the total minus the plan phase (lock
	// acquisition), so contention shows up under plan, not exec.
	ps.calls.Add(1)
	mStmts.Inc()
	ps.latency.Observe(total)
	if err != nil {
		mStmtErrors.Inc()
	} else {
		mRowsReturned.Add(int64(len(res.Rows)))
		mRowsAffected.Add(int64(res.RowsAffected))
	}
	if st := obs.Statements(); st.Enabled() {
		execNS := max(int64(total)-res.planNS, 0)
		rows := int64(len(res.Rows)) + int64(res.RowsAffected)
		st.Record(ps.fp.Hash, ps.fp.Text, ps.parseNS, res.planNS, execNS, rows, err != nil, res.TraceID)
	}
	s.ws.FinishStatement()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// execute runs one statement into res: transaction control here, everything
// else by statement type.
func (s *Session) execute(ps *PreparedStmt, opts ExecOptions, res *Result) error {
	db := s.db
	stmt := ps.stmt
	if len(opts.Params) != ps.NumParams {
		return fmt.Errorf("statement wants %d parameters, got %d", ps.NumParams, len(opts.Params))
	}
	switch stmt.(type) {
	case *sqlparse.Begin:
		if s.txn != nil {
			return fmt.Errorf("a transaction is already open")
		}
		s.txn = db.beginTxn()
		s.ws.SetTxn(s.txn.id)
		return nil
	case *sqlparse.Commit:
		if s.txn == nil {
			return fmt.Errorf("no transaction is open")
		}
		seq, err := db.commitTxn(s.txn, opts.Span, s.ws)
		res.CommitSeq = seq
		s.txn = nil
		s.ws.SetTxn(0)
		if err == nil {
			mTxnCommits.Inc()
		} else {
			mTxnRollbacks.Inc()
		}
		return err
	case *sqlparse.Rollback:
		if s.txn == nil {
			return fmt.Errorf("no transaction is open")
		}
		err := s.txn.rollback()
		s.txn = nil
		s.ws.SetTxn(0)
		mTxnRollbacks.Inc()
		return err
	}

	if s.txn != nil {
		// How far behind the current logical time this statement's snapshot
		// trails (long-running transactions read increasingly old cuts).
		hSnapshotAge.Record(int64(res.Start - s.txn.snap.ts))
	}

	if ps.writes && db.ReadOnly() {
		return fmt.Errorf("%w: statement rejected", ErrReadOnly)
	}

	var err error
	switch st := stmt.(type) {
	case *sqlparse.Select:
		err = s.execSelectStmt(st, opts, res, nil)
		if err == nil && s.txn != nil {
			s.txn.recordStmt(stmt, res, opts.Params)
		}
	case *sqlparse.Insert, *sqlparse.Update, *sqlparse.Delete:
		err = s.execDMLStmt(stmt, opts, res, nil)
		if err == nil && s.txn != nil {
			s.txn.recordStmt(stmt, res, opts.Params)
		}
	case *sqlparse.Explain:
		err = s.execExplainStmt(st, opts, res)
	case *sqlparse.CreateTable:
		if s.txn != nil {
			err = fmt.Errorf("DDL is not allowed inside a transaction")
		} else {
			res.CommitSeq, err = db.execCreateTable(st)
		}
	case *sqlparse.DropTable:
		if s.txn != nil {
			err = fmt.Errorf("DDL is not allowed inside a transaction")
		} else {
			res.CommitSeq, err = db.execDropTable(st)
		}
	case *sqlparse.CreateIndex:
		if s.txn != nil {
			err = fmt.Errorf("DDL is not allowed inside a transaction")
		} else {
			res.CommitSeq, err = db.execCreateIndex(st)
		}
	case *sqlparse.DropIndex:
		if s.txn != nil {
			err = fmt.Errorf("DDL is not allowed inside a transaction")
		} else {
			res.CommitSeq, err = db.execDropIndex(st)
		}
	case *sqlparse.Copy:
		err = s.execCopy(st, opts, res)
	case *sqlparse.Vacuum:
		if s.txn != nil {
			err = fmt.Errorf("VACUUM is not allowed inside a transaction")
		} else {
			err = db.execVacuum(st, opts, res)
		}
	case *sqlparse.Reenact:
		if s.txn != nil {
			err = fmt.Errorf("REENACT is not allowed inside a transaction")
		} else {
			err = s.execReenact(st, opts, res)
		}
	default:
		err = fmt.Errorf("unsupported statement type %T", stmt)
	}
	return err
}

// execSelectStmt runs a query against the session's snapshot: the open
// transaction's (repeatable) snapshot, or a fresh cut per statement. oc, when
// non-nil, collects per-operator actuals (EXPLAIN ANALYZE).
func (s *Session) execSelectStmt(sel *sqlparse.Select, opts ExecOptions, res *Result, oc *opCollector) error {
	ec := &stmtCtx{db: s.db, txn: s.txn, ws: s.ws, ops: oc, vals: execVals{params: opts.Params}, prep: opts.prep}
	switch {
	case sel.AsOf != nil || opts.AsOf > 0:
		// Time travel: the statement runs against the historical snapshot at
		// the requested tick — a statement-level override inside explicit
		// transactions too. The statement's own clause wins over the
		// session-level execution option.
		t, err := s.db.resolveAsOf(sel.AsOf, opts)
		if err != nil {
			return err
		}
		ec.snap = s.db.takeSnapshotAsOf(t)
	case s.txn != nil:
		ec.snap = s.txn.snap
	default:
		ec.snap = s.db.takeSnapshot(0)
	}
	unlock := ec.plan(sel, opts.Span)
	defer unlock()
	res.planNS = ec.planNS
	sp := opts.Span.Child("engine.exec")
	defer sp.End()
	return ec.execSelect(sel, opts, res)
}

// execDMLStmt runs a write statement. Outside an explicit transaction the
// statement gets an implicit one, which both gives it statement-level
// atomicity (a mid-statement error rolls back its partial writes) and keeps
// its in-flight writes invisible to concurrent snapshots until it finishes.
// oc, when non-nil, collects per-operator actuals (EXPLAIN ANALYZE).
func (s *Session) execDMLStmt(stmt sqlparse.Statement, opts ExecOptions, res *Result, oc *opCollector) error {
	db := s.db
	txn := s.txn
	implicit := txn == nil
	if implicit {
		txn = db.beginTxn()
		s.ws.SetTxn(txn.id)
		defer s.ws.SetTxn(0)
	}
	err := s.applyDML(stmt, opts, res, txn, oc)
	if implicit {
		if err != nil {
			db.endTxn(txn.id) // abort; undo already ran, nothing to log
			return err
		}
		// Durability point of auto-commit DML. Record the statement first so
		// the implicit transaction is reenactable like an explicit one.
		txn.recordStmt(stmt, res, opts.Params)
		res.CommitSeq, err = db.commitTxn(txn, opts.Span, s.ws)
		return err
	}
	return err
}

// applyDML performs the mutation under the statement's table locks with
// statement-level atomicity. Split from execDMLStmt so the engine.exec span
// closes when the locks release, before any commit work (wal.commit gets its
// own span).
func (s *Session) applyDML(stmt sqlparse.Statement, opts ExecOptions, res *Result, txn *Txn, oc *opCollector) error {
	ec := &stmtCtx{db: s.db, snap: txn.snap, txn: txn, ws: s.ws, ops: oc, vals: execVals{params: opts.Params}, prep: opts.prep}
	if opts.WithLineage {
		// Reenactment provenance: the versions the statement reads.
		ec.lin = &lineageSink{stmt: res.StmtID}
	}
	mark := len(txn.undo)
	rmark := len(txn.redo)
	unlock := ec.plan(stmt, opts.Span)
	defer unlock()
	res.planNS = ec.planNS
	sp := opts.Span.Child("engine.exec")
	defer sp.End()
	tree := s.db.planTree(stmtCatalog{ec}, ec.prep, stmt)
	err := ec.ops.node(tree.Root, func() (int, error) {
		var err error
		switch st := stmt.(type) {
		case *sqlparse.Insert:
			err = ec.execInsert(st, tree, opts, res)
		case *sqlparse.Update:
			err = ec.execUpdate(st, tree, opts, res)
		case *sqlparse.Delete:
			err = ec.execDelete(st, tree, opts, res)
		}
		return res.RowsAffected, err
	})
	if err != nil {
		// Statement-level atomicity: undo this statement's writes while its
		// table locks are still held, inside or outside an explicit txn —
		// and drop its redo entries so they never reach the WAL.
		if uerr := txn.undoFrom(mark); uerr != nil {
			err = fmt.Errorf("%w (statement %v)", uerr, err)
		}
		txn.redo = txn.redo[:rmark]
	}
	return err
}

// stmtCtx is the execution context of one statement: its snapshot, its
// transaction (DML only), and the tables it resolved and locked up front.
// All exec* functions run lock-free against this context.
type stmtCtx struct {
	db     *DB
	snap   snapshot
	txn    *Txn
	tables map[string]*Table

	// ws publishes the statement's wait state (lock.table from lockSlow);
	// nil outside a registered session.
	ws *obs.SessionState

	// vals is the execution's value table: the bound parameter values, and
	// the subquery results runInit adds; prep links back to the statement
	// being executed (nil inside REENACT's replays).
	vals execVals
	prep *PreparedStmt

	// ops, when non-nil, collects per-operator rows and timings for
	// EXPLAIN ANALYZE; planNS is the plan-phase duration recorded by plan().
	ops    *opCollector
	planNS int64

	// lin, when non-nil, captures the statement's lineage (lineage.go). The
	// statement's entry point opens it; its subqueries share it.
	lin *lineageSink
}

// plan resolves and locks the statement's table footprint under an
// engine.plan span — lock acquisition is the dominant plan-phase cost, so
// the span makes lock contention visible in a request's waterfall.
func (ec *stmtCtx) plan(stmt sqlparse.Statement, parent *obs.Span) func() {
	t0 := time.Now()
	sp := parent.Child("engine.plan")
	defer sp.End()
	unlock := ec.lockTables(stmtTables(stmt))
	ec.planNS = int64(time.Since(t0))
	return unlock
}

// table resolves a name against the statement's locked footprint.
func (ec *stmtCtx) table(name string) (*Table, error) {
	if t, ok := ec.tables[name]; ok {
		return t, nil
	}
	if ec.db.virtualTable(name) != nil {
		return nil, fmt.Errorf("table %q is a read-only system view", name)
	}
	return nil, fmt.Errorf("table %q does not exist", name)
}
