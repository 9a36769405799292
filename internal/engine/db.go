package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ldv/internal/obs"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Clock supplies the logical timestamps recorded on tuple versions and
// statement executions. When the engine runs inside the simulated OS the
// kernel clock is plugged in here so DB and OS events share one timeline —
// the property the temporal dependency inference of the paper relies on.
// Implementations must be safe for concurrent use: sessions tick it in
// parallel.
type Clock interface {
	// Tick advances the clock and returns the new time.
	Tick() uint64
}

// counterClock is the default standalone clock.
type counterClock struct {
	t atomic.Uint64
}

func (c *counterClock) Tick() uint64 { return c.t.Add(1) }

// Now reads the clock without advancing it (see ClockReader).
func (c *counterClock) Now() uint64 { return c.t.Load() }

// NewCounterClock returns a fresh logical clock starting at 1.
func NewCounterClock() Clock { return &counterClock{} }

// ClockReader is implemented by clocks that can be read without ticking.
// Replication heartbeats use it to report the primary's current time so a
// replica can express its lag in ticks.
type ClockReader interface {
	Now() uint64
}

// ExecOptions control one statement execution.
type ExecOptions struct {
	// Proc identifies the client process on whose behalf the statement runs
	// (recorded as prov_p on produced tuple versions).
	Proc string
	// WithLineage requests Lineage computation for queries and reenactment
	// provenance for updates, regardless of the PROVENANCE keyword.
	WithLineage bool
	// Span, when non-nil, is the parent span of this execution (typically
	// the server's per-request span): the engine's plan/exec/WAL child spans
	// attach to it and the Result is stamped with its trace ID. Nil disables
	// engine span recording.
	Span *obs.Span
	// Params are the values bound to the statement's positional `?`
	// placeholders, 1-based in source order: exactly one per placeholder
	// (of the whole script, for ExecScript), or the execution fails.
	// Session.ExecPrepared sets it from its args.
	Params []sqlval.Value
	// AsOf, when non-zero, pins SELECTs to the historical snapshot at the
	// given logical tick — the session-level form of the statement's AS OF
	// clause (an explicit clause in the statement wins). Carried over the
	// wire as the Query message's trailing as-of field.
	AsOf uint64
	// FS is where COPY reads and writes the file it names. Not a user knob:
	// a server sets it to its own filesystem on every statement, so the file
	// access is the server process's; without it COPY fails.
	FS FileSystem

	// prep links the execution back to its statement (plan-cache key and
	// per-statement counters). Set only by Session.ExecPrepared.
	prep *PreparedStmt
}

// Result is the outcome of one statement execution.
type Result struct {
	// Columns and Rows hold query output (empty for DML).
	Columns []string
	Rows    [][]sqlval.Value
	// Lineage[i] lists the input tuple versions result row i depends on.
	// Non-nil only when lineage was requested (PROVENANCE keyword or
	// ExecOptions.WithLineage).
	Lineage [][]TupleRef
	// RowsAffected counts rows written by DML.
	RowsAffected int
	// StmtID is the engine-assigned unique id of this execution.
	StmtID int64
	// Start and End bound the execution on the logical timeline.
	Start, End uint64
	// ReadRefs lists tuple versions read by a DML statement (the pre-update
	// versions for UPDATE/DELETE, the query lineage for INSERT ... SELECT).
	ReadRefs []TupleRef
	// WrittenRefs lists tuple versions produced by a DML statement.
	WrittenRefs []TupleRef
	// TupleValues carries the attribute values of exactly the tuple
	// versions referenced by Lineage or ReadRefs — the statement's read
	// set. Perm-style provenance queries return the full provenance tuples
	// inline; LDV's packager persists them to CSV. Empty unless lineage was
	// requested.
	TupleValues VersionSet
	// TraceID is the hex trace identity of the request that executed the
	// statement ("" when tracing is off). The client sets it from its root
	// span; the auditor stamps it into provenance edges and the session log
	// so a package answers "which trace wrote this tuple version".
	TraceID string
	// CommitSeq is the WAL record sequence this statement's commit occupies
	// (0 when nothing was logged: reads, WAL-less databases, statements
	// inside a still-open transaction). A client that later reads from a
	// replica can demand the replica has applied at least this sequence —
	// the read-your-writes bound.
	CommitSeq uint64
	// Fingerprint is the hex hash of the statement's normalized text — the
	// join key against ldv_stat_statements ("" when unknown).
	Fingerprint string

	// planNS is the plan-phase (lock acquisition) duration, used to split
	// exec time out of the statement total for per-fingerprint stats.
	planNS int64
}

// DB is an in-memory relational database with provenance support and MVCC
// snapshot isolation across concurrent sessions. The zero value is not
// usable; call NewDB.
type DB struct {
	// mu is the catalog lock: it guards only the tables map and is held for
	// short critical sections (name resolution in read mode, DDL in write
	// mode). Data access is synchronized by the per-table RWMutexes,
	// acquired strictly after mu.
	mu     sync.RWMutex
	tables map[string]*Table

	// commitMu serializes the commit step (WAL append + active-set
	// removal) against Checkpoint's cut capture: committers hold it shared
	// for the whole append-then-deregister sequence, Checkpoint holds it
	// exclusively while it snapshots and records the log offset it may
	// later truncate to. Acquired before mu; never held across table locks.
	commitMu sync.RWMutex
	wal      *WAL

	// idxMu serializes index DDL: index names are a global namespace
	// resolved by scanning every table, so concurrent CREATE/DROP INDEX
	// must not interleave between the name check and the install.
	idxMu sync.Mutex

	clock    Clock
	nextRow  atomic.Uint64
	nextStmt atomic.Int64

	// txnMu guards the transaction registries: the active set (id → snapshot
	// tick, 0 while the snapshot is still being captured — vacuum treats that
	// as "unknown, defer"), the commit-timestamp map historical snapshots
	// classify committed transactions with, and the reenactment history.
	txnMu       sync.RWMutex
	activeTxns  map[int64]uint64
	nextTxn     int64
	committedTs map[int64]uint64
	txnHist     map[int64]*TxnRecord

	// vacuumMu serializes vacuum passes; vacuumHorizon is the current
	// retention floor (no version end-marked at or before it survives, and
	// AS OF reads below it are rejected). retainTicks is the configured
	// retention window applied by bare VACUUM and the background vacuumer
	// (0 = keep everything up to the active-snapshot bound).
	vacuumMu      sync.Mutex
	vacuumHorizon atomic.Uint64
	retainTicks   atomic.Uint64

	// Vacuum pass statistics surfaced by ldv_stat_vacuum.
	vacuumPasses   atomic.Int64
	vacuumPruned   atomic.Int64
	vacuumDeferred atomic.Int64
	vacuumLastNS   atomic.Int64

	// readOnly, when set, rejects every statement that would write (DML,
	// DDL, COPY FROM) with ErrReadOnly. Replicas run in this mode until
	// promoted; the replication apply path bypasses sessions and is not
	// affected.
	readOnly atomic.Bool

	// vtMu guards the system-view registry (see virtual.go).
	vtMu    sync.RWMutex
	virtual map[string]*VirtualTable

	// Plan cache for prepared SELECTs, keyed by statement fingerprint.
	// ddlEpoch counts catalog changes (table and index DDL, on the primary
	// and on the replication/recovery apply paths); an entry built under an
	// older epoch is discarded on lookup (see prepared.go).
	pcMu      sync.Mutex
	planCache map[uint64]planCacheEntry
	ddlEpoch  atomic.Uint64

	// defSess serves the DB-level Exec* compatibility API: callers that
	// never open their own Session share this one (and therefore serialize
	// with each other, as they did when the DB had a single global mutex).
	defSessOnce sync.Once
	defSess     *Session
}

// NewDB returns an empty database using the given clock (nil for a private
// counter clock).
func NewDB(clock Clock) *DB {
	if clock == nil {
		clock = NewCounterClock()
	}
	db := &DB{
		tables:      make(map[string]*Table),
		clock:       clock,
		activeTxns:  make(map[int64]uint64),
		committedTs: make(map[int64]uint64),
		txnHist:     make(map[int64]*TxnRecord),
		virtual:     make(map[string]*VirtualTable),
		planCache:   make(map[uint64]planCacheEntry),
	}
	db.registerBuiltinVirtualTables()
	return db
}

// SetReadOnly toggles read-only mode: while set, write statements fail with
// ErrReadOnly. A replica database is read-only from construction until
// promotion.
func (db *DB) SetReadOnly(ro bool) { db.readOnly.Store(ro) }

// ReadOnly reports whether the database currently rejects writes.
func (db *DB) ReadOnly() bool { return db.readOnly.Load() }

// ClockNow peeks at the logical clock without advancing it, returning 0
// when the clock cannot be read passively.
func (db *DB) ClockNow() uint64 {
	if r, ok := db.clock.(ClockReader); ok {
		return r.Now()
	}
	return 0
}

// newStmtID assigns a database-wide unique statement id.
func (db *DB) newStmtID() int64 { return db.nextStmt.Add(1) }

// newRowID assigns a database-wide unique row id.
func (db *DB) newRowID() RowID { return RowID(db.nextRow.Add(1)) }

// defaultSession lazily creates the shared compatibility session.
func (db *DB) defaultSession() *Session {
	db.defSessOnce.Do(func() { db.defSess = db.NewSession() })
	return db.defSess
}

// TableNames returns the sorted names of all tables.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tableList returns every table, sorted by name.
func (db *DB) tableList() []*Table {
	db.mu.RLock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	db.mu.RUnlock()
	sort.Slice(tables, func(i, j int) bool { return tables[i].Name < tables[j].Name })
	return tables
}

// TableMeta is an immutable view of a table's metadata: a snapshot of the
// schema plus the live row count at the time of the call. Unlike a *Table it
// can be read without holding any engine lock.
type TableMeta struct {
	Name   string
	Schema Schema
	Rows   int
}

// Table returns the named table's metadata, or an error.
func (db *DB) Table(name string) (TableMeta, error) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return TableMeta{}, fmt.Errorf("table %q does not exist", name)
	}
	schema := Schema{Columns: append([]Column(nil), t.Schema.Columns...)}
	return TableMeta{Name: t.Name, Schema: schema, Rows: t.RowCount()}, nil
}

// Exec parses and executes a single SQL statement on the shared default
// session (single-session compatibility API; servers open one Session per
// connection instead).
func (db *DB) Exec(sql string, opts ExecOptions) (*Result, error) {
	return db.defaultSession().Exec(sql, opts)
}

// ExecScript parses and executes a semicolon-separated script on the shared
// default session, stopping at the first error.
func (db *DB) ExecScript(sql string, opts ExecOptions) ([]*Result, error) {
	return db.defaultSession().ExecScript(sql, opts)
}

func (db *DB) execCreateTable(s *sqlparse.CreateTable) (uint64, error) {
	if strings.HasPrefix(s.Table, "ldv_stat_") || db.virtualTable(s.Table) != nil {
		return 0, fmt.Errorf("table name %q is reserved for system views", s.Table)
	}
	if len(s.Columns) == 0 {
		return 0, fmt.Errorf("table %q needs at least one column", s.Table)
	}
	schema := Schema{}
	seen := map[string]bool{}
	pkCount := 0
	for _, c := range s.Columns {
		if seen[c.Name] {
			return 0, fmt.Errorf("duplicate column %q in table %q", c.Name, s.Table)
		}
		if IsProvColumn(c.Name) {
			return 0, fmt.Errorf("column name %q is reserved for provenance", c.Name)
		}
		seen[c.Name] = true
		if c.PrimaryKey {
			pkCount++
		}
		schema.Columns = append(schema.Columns, Column{Name: c.Name, Type: c.Type, PrimaryKey: c.PrimaryKey})
	}
	if pkCount > 1 {
		return 0, fmt.Errorf("table %q: at most one PRIMARY KEY column is supported", s.Table)
	}
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	db.mu.Lock()
	if _, exists := db.tables[s.Table]; exists {
		db.mu.Unlock()
		if s.IfNotExists {
			return 0, nil
		}
		return 0, fmt.Errorf("table %q already exists", s.Table)
	}
	db.tables[s.Table] = newTable(s.Table, schema)
	db.mu.Unlock()
	seq, err := db.logDDL(redoEntry{kind: walCreate, table: s.Table, schema: schema})
	if err != nil {
		db.mu.Lock()
		delete(db.tables, s.Table)
		db.mu.Unlock()
		return 0, err
	}
	return seq, nil
}

func (db *DB) execDropTable(s *sqlparse.DropTable) (uint64, error) {
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	db.mu.Lock()
	t, exists := db.tables[s.Table]
	if !exists {
		db.mu.Unlock()
		if s.IfExists {
			return 0, nil
		}
		return 0, fmt.Errorf("table %q does not exist", s.Table)
	}
	delete(db.tables, s.Table)
	db.mu.Unlock()
	seq, err := db.logDDL(redoEntry{kind: walDrop, table: s.Table})
	if err != nil {
		db.mu.Lock()
		db.tables[s.Table] = t
		db.mu.Unlock()
		return 0, err
	}
	return seq, nil
}

// logDDL makes a catalog change durable as a single-entry WAL record (DDL
// runs outside transactions; txn id 0 labels it). Caller holds
// commitMu.RLock so Checkpoint's cut never splits a DDL's apply-and-log.
// Returns the record's WAL sequence (0 without a WAL).
func (db *DB) logDDL(e redoEntry) (uint64, error) {
	// Every DDL exec path funnels through here, so this is also the plan
	// cache's invalidation point: bump the epoch so cached plans built
	// against the old catalog are discarded on their next lookup. (A bump
	// for a DDL that subsequently fails to log costs one spurious re-plan.)
	db.bumpDDLEpoch()
	if db.wal == nil {
		return 0, nil
	}
	return db.wal.Commit(encodeWALTxn(0, []redoEntry{e}))
}

// commitTxn is the commit point of a transaction: its redo record is
// flushed to the WAL (when one is attached) *before* it leaves the active
// set, so success here — the acknowledgment the caller relays — implies
// durability. On a flush failure the transaction rolls back instead: the
// client sees an error and the in-memory state matches the log. The
// returned sequence is the WAL position of the commit record (0 when
// nothing needed logging).
func (db *DB) commitTxn(x *Txn, parent *obs.Span, ws *obs.SessionState) (uint64, error) {
	db.commitMu.RLock()
	if db.wal == nil || len(x.redo) == 0 {
		cts := db.endTxnCommitted(x.id)
		db.commitMu.RUnlock()
		db.commitTxnHist(x, cts, 0)
		return 0, nil
	}
	// Fold the statement history into the redo record (walStmt entries after
	// the data entries) so reenactment survives restarts and reaches replicas.
	for _, h := range x.hist {
		x.redo = append(x.redo, h.redoEntry(x.snap.ts))
	}
	seq, err := db.walCommit(x, parent, ws)
	if err == nil {
		cts := db.endTxnCommitted(x.id)
		db.commitMu.RUnlock()
		db.commitTxnHist(x, cts, seq)
		return seq, nil
	}
	db.commitMu.RUnlock()
	if rerr := x.rollback(); rerr != nil {
		return 0, fmt.Errorf("commit: %w (rollback: %v)", err, rerr)
	}
	return 0, fmt.Errorf("commit: %w", err)
}

// walCommit flushes the transaction's redo record, under a wal.commit span
// so a trace attributes group-commit latency to the request that paid it,
// and under a wal.group_commit wait so the flush wait is visible to the ASH
// sampler and the cumulative wait-event stats.
func (db *DB) walCommit(x *Txn, parent *obs.Span, ws *obs.SessionState) (uint64, error) {
	sp := parent.Child("wal.commit")
	defer sp.End()
	end := obs.WaitBegin(ws, obs.WaitWALGroupCommit)
	defer end()
	return db.wal.Commit(encodeWALTxn(x.id, x.redo))
}

// lookupTable resolves a table name under the catalog lock.
func (db *DB) lookupTable(name string) (*Table, error) {
	db.mu.RLock()
	t, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("table %q does not exist", name)
	}
	return t, nil
}

// InsertRowDirect loads a row bypassing SQL (the load path of the TPC-H
// generator; a package restore uses RestoreRows). The row is recorded as
// preloaded:
// proc="" and stmt=0 so it never counts as application-created.
func (db *DB) InsertRowDirect(table string, vals []sqlval.Value) (TupleRef, error) {
	t, err := db.lookupTable(table)
	if err != nil {
		return TupleRef{}, err
	}
	r := &storedRow{id: db.newRowID(), vals: vals, version: db.clock.Tick()}
	t.mu.Lock()
	err = t.insertRow(r)
	t.mu.Unlock()
	if err != nil {
		return TupleRef{}, err
	}
	return r.ref(table), nil
}

// RestoredRow is one tuple version handed to RestoreRows: the original row
// id, version and producing process of a packaged tuple, and its values.
type RestoredRow struct {
	ID      RowID
	Version uint64
	Proc    string
	Vals    []sqlval.Value
}

// RestoreRows loads tuple versions with explicit provenance metadata (a
// package re-creating the relevant DB slice with the original row ids and
// versions preserved) as one batch through the bulk loader: one table lock
// and one row-id generator update for the whole batch. next fills in the
// row it is handed and reports whether there was one; it may reuse Vals
// between calls (the values are copied into the loader's slab, TEXT values
// still share the caller's string bytes). sizeHint is the expected number
// of rows — an estimate only sizes the slabs. Rows are checked as an INSERT
// checks them; on the first bad one loading stops, the rows before it stay,
// and the error is returned.
func (db *DB) RestoreRows(table string, sizeHint int, next func(*RestoredRow) (bool, error)) error {
	t, err := db.lookupTable(table)
	if err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ld := t.newRowLoader(sizeHint, sizeHint, sizeHint)
	defer func() {
		ld.finish()
		db.advanceNextRow(ld.maxRow)
	}()
	var row RestoredRow
	for {
		ok, err := next(&row)
		if err != nil || !ok {
			return err
		}
		r := ld.next()
		r.id, r.version, r.proc = row.ID, row.Version, row.Proc
		ld.vals = append(ld.vals, row.Vals...)
		if err := ld.add(r); err != nil {
			return err
		}
	}
}

// advanceNextRow moves the row-id generator to at least id, so ids assigned
// from now on do not collide with a loaded row's.
func (db *DB) advanceNextRow(id RowID) {
	for {
		cur := db.nextRow.Load()
		if uint64(id) <= cur || db.nextRow.CompareAndSwap(cur, uint64(id)) {
			return
		}
	}
}

// advanceNextStmt moves the statement-id generator to at least id.
func (db *DB) advanceNextStmt(id int64) {
	for {
		cur := db.nextStmt.Load()
		if id <= cur || db.nextStmt.CompareAndSwap(cur, id) {
			return
		}
	}
}

// ScanAll returns every tuple version of a table visible to a fresh snapshot
// along with its values (used by whole-DB packaging baselines and tests).
func (db *DB) ScanAll(table string) ([]TupleRef, [][]sqlval.Value, error) {
	t, err := db.lookupTable(table)
	if err != nil {
		return nil, nil, err
	}
	snap := db.takeSnapshot(0)
	t.mu.RLock()
	defer t.mu.RUnlock()
	var refs []TupleRef
	var rows [][]sqlval.Value
	for _, r := range t.rows {
		if !snap.visible(r) {
			continue
		}
		refs = append(refs, r.ref(table))
		rows = append(rows, append([]sqlval.Value(nil), r.vals...))
	}
	return refs, rows, nil
}

// LookupVersion fetches the values of a committed tuple version, if present.
// Superseded (end-marked) versions remain addressable: they are exactly the
// provenance tuples reenactment refers back to.
func (db *DB) LookupVersion(ref TupleRef) ([]sqlval.Value, bool) {
	t, err := db.lookupTable(ref.Table)
	if err != nil {
		return nil, false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if r.id == ref.Row && r.version == ref.Version && !db.txnActive(r.txnID) {
			return append([]sqlval.Value(nil), r.vals...), true
		}
	}
	return nil, false
}
