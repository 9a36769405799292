package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ldv/internal/sqlval"
)

// TupleRef identifies one tuple *version*: a (table, rowid, version)
// triple. Two writes to the same row produce distinct versions.
type TupleRef struct {
	Table   string
	Row     RowID
	Version uint64
}

// String renders the ref in the form used by trace node IDs.
func (r TupleRef) String() string {
	return fmt.Sprintf("%s/%d@%d", r.Table, r.Row, r.Version)
}

// storedRow is one tuple version. Under MVCC a version is never mutated in
// place: an UPDATE appends a successor version and end-marks the old one, a
// DELETE only end-marks. id, vals, version, proc, stmt, and txnID are
// immutable after insertion; end and endTxn change only under the table's
// write lock (set by UPDATE/DELETE, cleared again by rollback); usedBy,
// prov_usedby, is stamped by lineageSink.finish with the id of a statement
// whose version set holds the version, atomically because a read holds
// only the table's read lock.
type storedRow struct {
	id      RowID
	vals    []sqlval.Value
	version uint64 // prov_v: logical time the version was produced (begin timestamp)
	end     uint64 // logical time the version was superseded or deleted; 0 = live
	proc    string // prov_p: process that produced the version ("" = preloaded)
	stmt    int64  // statement id that produced the version (0 = preloaded)
	txnID   int64  // transaction that produced the version (0 = preloaded/bulk)
	endTxn  int64  // transaction that end-marked the version (0 = none)
	usedBy  atomic.Int64
}

func (r *storedRow) ref(table string) TupleRef {
	return TupleRef{Table: table, Row: r.id, Version: r.version}
}

// Table is the storage for one relation: an append-only slice of tuple
// versions and the indexes over them. A primary key is held by its versions:
// the implicit <name>_pkey index files every version under its key, and
// claimKey reads who holds a key from that bucket — no other structure
// records it.
// The RWMutex is the table's entry in the engine's lock hierarchy: statements
// acquire table locks (readers share, writers exclude) after resolving names
// under the DB catalog lock and never the other way around.
type Table struct {
	Name   string
	Schema Schema

	mu   sync.RWMutex
	rows []*storedRow
	pkey *tableIndex // the primary key's implicit index, <name>_pkey; nil without a primary key

	// indexes is the table's secondary-index list, sorted by name. It is
	// copy-on-write behind an atomic pointer: structure mutations (DDL and
	// per-index entry maintenance) happen under t.mu's write lock, but the
	// planner and the ldv_stat_indexes view read the list and its atomic
	// statistics without any lock.
	indexes atomic.Pointer[[]*tableIndex]

	// Introspection counters, maintained at every insert/remove/end-mark
	// site. They are atomics — not derived under t.mu — so the
	// ldv_stat_tables virtual table can report row counts and lock
	// contention without taking table locks inside a statement that already
	// holds some (which could deadlock against sorted-order writers).
	liveRows   atomic.Int64 // versions with no end mark
	versions   atomic.Int64 // total stored tuple versions
	lockWaits  atomic.Int64 // statements that locked this table
	lockWaitNS atomic.Int64 // cumulative time spent acquiring its lock

	// deadVersions counts committed end-marked versions — the retention
	// pressure vacuum relieves. Incremented when an end mark commits is too
	// late to observe cheaply, so it is maintained at the end-mark site and
	// decremented again on rollback, at physical removal, and by vacuum.
	deadVersions atomic.Int64

	// vacuumPruned counts versions this table lost to vacuum passes.
	vacuumPruned atomic.Int64

	// mutations counts the changes to anything a table file carries but the
	// prov_usedby stamps, stamps counts the changes to those, and image is
	// the file the table equalled when the two read image.at and
	// image.stampsAt: the sync rule of DESIGN.md "Value layout and table
	// storage". Nothing ever clears a dirty bit, so a change that races a
	// checkpoint is never lost.
	mutations atomic.Uint64
	stamps    atomic.Uint64
	image     atomic.Pointer[fileImage]
}

// fileImage names a table file by its digest, with where it was last written
// or read and the table's two counts when the table equalled it. The file
// is the .tbl image amended, when hasStamps, by the .stamps image with
// digest stampsDigest.
type fileImage struct {
	digest       uint64
	at           uint64
	stampsAt     uint64
	hasStamps    bool
	stampsDigest uint64
	fs           FileSystem
	dir          string
}

// touch records a change to what the table's file would hold other than a
// prov_usedby stamp. A writer calls it inside its table-lock hold.
func (t *Table) touch() { t.mutations.Add(1) }

// stamped records a change to the table's prov_usedby stamps. A statement's
// lineage sink, which stamps under the shared lock, calls it after the
// table's last stamp, so an encode that saw only some of the stamps is
// invalidated by the call.
func (t *Table) stamped() { t.stamps.Add(1) }

// current returns the file image the table still equals, stamps included,
// or nil.
func (t *Table) current() *fileImage {
	if im := t.tblCurrent(); im != nil && im.stampsAt == t.stamps.Load() {
		return im
	}
	return nil
}

// tblCurrent returns the file image whose .tbl the table still equals but
// for its prov_usedby stamps, or nil.
func (t *Table) tblCurrent() *fileImage {
	if im := t.image.Load(); im != nil && im.at == t.mutations.Load() {
		return im
	}
	return nil
}

// setEnd end-marks a live version on behalf of txn (0: replayed from the
// log); clearEnd takes the mark back on rollback. Caller holds the table
// write lock. The mark is the key change too: a version with one no longer
// holds its primary key (claimKey).
func (t *Table) setEnd(r *storedRow, end uint64, txn int64) {
	r.end, r.endTxn = end, txn
	t.liveRows.Add(-1)
	t.deadVersions.Add(1)
	t.touch()
}

func (t *Table) clearEnd(r *storedRow) {
	r.end, r.endTxn = 0, 0
	t.liveRows.Add(1)
	t.deadVersions.Add(-1)
	t.touch()
}

// newTable returns an empty table. A primary key gets its implicit hash
// index, <name>_pkey, which holds the key and which the planner probes like
// any other.
func newTable(name string, schema Schema) *Table {
	t := &Table{Name: name, Schema: schema}
	if pk := schema.PrimaryKeyIndex(); pk >= 0 {
		t.pkey = newTableIndex(name+pkeySuffix, schema.Columns[pk].Name, pk, "hash")
		t.pkey.implicit = true
		t.indexes.Store(&[]*tableIndex{t.pkey})
	}
	return t
}

// RowCount returns the number of live (not end-marked) tuple versions.
func (t *Table) RowCount() int { return int(t.liveRows.Load()) }

// admitRow is the one row check, shared by insertRow, the applier and the
// bulk loader: arity, and every value against its column (a value of another
// kind goes through checkValue, which coerces or rejects it). Caller holds
// the table write lock.
func (t *Table) admitRow(r *storedRow) error {
	if len(r.vals) != len(t.Schema.Columns) {
		return fmt.Errorf("table %s: row has %d values, schema has %d columns",
			t.Name, len(r.vals), len(t.Schema.Columns))
	}
	for i := range t.Schema.Columns {
		if k := r.vals[i].Kind(); k == t.Schema.Columns[i].Type || k == sqlval.KindNull {
			continue
		}
		v, err := checkValue(t.Schema.Columns[i], r.vals[i])
		if err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
		r.vals[i] = v
	}
	return nil
}

// claimKey is the one primary-key rule: it reports why r, a live version
// written by transaction r.txnID, may not hold its key K. K may not be NULL.
// K is taken while a version of K's <name>_pkey bucket other than r has no
// end mark, and blocked while one carries the end mark of another
// transaction the write cut shows open, which may yet roll back. INSERT,
// COPY FROM, a key-changing UPDATE and, once its indexes are rebuilt, the
// bulk loader ask it; the applier does not (see replica.go). db supplies the
// write cut, copied only when such an end mark is found; it may be nil for
// a table no transaction has written, whose versions carry none. Caller
// holds the table write lock.
func (t *Table) claimKey(db *DB, r *storedRow) error {
	if t.pkey == nil {
		return nil
	}
	key := r.vals[t.pkey.col]
	if key.IsNull() {
		return fmt.Errorf("table %s: null value in primary key column %s", t.Name, t.pkey.column)
	}
	bucket, ended := t.pkey.bucket(key), false
	for _, v := range bucket {
		if v != r && v.end == 0 {
			return fmt.Errorf("table %s: duplicate primary key %s", t.Name, key)
		}
		ended = ended || v.endTxn != 0 && v.endTxn != r.txnID
	}
	if !ended {
		return nil
	}
	cut := db.writeCut(r.txnID)
	for _, v := range bucket {
		if v.endTxn != r.txnID && cut.active.has(v.endTxn) {
			return fmt.Errorf("could not serialize access due to concurrent update on table %s: primary key %s was released by an open transaction", t.Name, key)
		}
	}
	return nil
}

// claimKeys runs claimKey over the live versions among rows: the bulk
// loader's one key check, once the table's indexes cover the load.
func (t *Table) claimKeys(db *DB, rows []*storedRow) error {
	if t.pkey == nil {
		return nil
	}
	for _, r := range rows {
		if r.end == 0 {
			if err := t.claimKey(db, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// insertRow checks and appends a live row version of an INSERT, a COPY
// FROM or InsertRowDirect, which must be able to claim its primary key
// (caller holds the table write lock).
func (t *Table) insertRow(db *DB, r *storedRow) error {
	if err := t.admitRow(r); err != nil {
		return err
	}
	if err := t.claimKey(db, r); err != nil {
		return err
	}
	t.appendLive(r)
	return nil
}

// appendLive stores an admitted live version (insertRow; UPDATE's successor
// version, whose key the statement has already claimed if it changed; and
// the applier's replayed one).
func (t *Table) appendLive(r *storedRow) {
	t.rows = append(t.rows, r)
	t.indexInsert(r)
	t.versions.Add(1)
	t.liveRows.Add(1)
	t.touch()
}

// rowLoader is the bulk loader: every path that brings many versions into a
// table at once — a table file's live rows and its dead versions (LoadDir,
// Recover, the replica bootstrap) and RestoreRows — appends through one. It
// takes the versions from one []storedRow slab and their values from one
// []sqlval.Value slab, both sized from the caller's row count — the room a
// decoder could back with the bytes it had left (bin.Reserve), or only a
// hint. A slab that runs out is followed by another, never regrown (see
// slabRows). Each version goes through admitRow, the row check insertRow
// runs; its caller rebuilds the table's indexes once the last version is in
// and then checks the keys of the load at once (claimKeys).
//
// What a loaded table keeps alive: each slab lives as long as any version
// carved from it is reachable, and so does whatever backing string the
// caller's TEXT values and proc names are substrings of (decodeTable: one
// string per table file). Vacuum drops versions from t.rows and the
// indexes, but the memory of a slab — and of that string — returns to the
// collector only when the last version of the load is gone.
type rowLoader struct {
	t      *Table
	rows   []storedRow
	vals   []sqlval.Value // the current row's values are vals[mark:]
	mark   int
	want   int // versions announced and not yet taken
	live   int64
	dead   int64
	maxRow RowID
	maxTS  uint64
}

// newRowLoader prepares t for n more versions, with room for the first room
// of them (caller holds the table write lock, or owns a table not yet
// published).
func (t *Table) newRowLoader(n, room int) rowLoader {
	t.rows = slices.Grow(t.rows, room)
	return rowLoader{
		t:    t,
		rows: make([]storedRow, 0, room),
		vals: make([]sqlval.Value, 0, room*len(t.Schema.Columns)),
		want: n,
	}
}

// next returns the slab slot of the next version, zeroed, for the caller to
// fill; the values it then appends to l.vals become the version's row when
// it calls add.
func (l *rowLoader) next() *storedRow {
	if len(l.rows) == cap(l.rows) {
		l.rows = make([]storedRow, 0, l.slabRows(cap(l.rows)))
	}
	if ncols := len(l.t.Schema.Columns); cap(l.vals)-len(l.vals) < ncols {
		l.vals = make([]sqlval.Value, 0, ncols*l.slabRows(cap(l.vals)/ncols))
	}
	l.want--
	l.mark = len(l.vals)
	l.rows = l.rows[:len(l.rows)+1]
	return &l.rows[len(l.rows)-1]
}

// slabRows sizes the slab that follows one of last versions: up to twice
// as large while versions are still announced, never more than those (so a
// count the input did not back grows memory only as fast as versions
// decode), and once they are in, as large but never under 64.
func (l *rowLoader) slabRows(last int) int {
	if l.want > 0 {
		return min(max(2*last, 1), l.want)
	}
	return max(last, 64)
}

// add checks and appends the version next returned. On error the table
// keeps the versions added before it and the caller abandons the load.
func (l *rowLoader) add(r *storedRow) error {
	r.vals = l.vals[l.mark:len(l.vals):len(l.vals)]
	if err := l.t.admitRow(r); err != nil {
		return err
	}
	l.t.rows = append(l.t.rows, r)
	if r.end == 0 {
		l.live++
	} else {
		l.dead++
	}
	l.maxRow = max(l.maxRow, r.id)
	l.maxTS = max(l.maxTS, r.version, r.end)
	return nil
}

// finish publishes the batch's counters.
func (l *rowLoader) finish() {
	l.t.touch()
	l.t.versions.Add(l.live + l.dead)
	l.t.liveRows.Add(l.live)
	l.t.deadVersions.Add(l.dead)
}

// removeRow physically removes a version (insert rollback only), from the
// table and its indexes. Searches from the end: rolled-back inserts are
// recent.
func (t *Table) removeRow(r *storedRow) error {
	for i := len(t.rows) - 1; i >= 0; i-- {
		if t.rows[i] != r {
			continue
		}
		last := len(t.rows) - 1
		t.rows[i] = t.rows[last]
		t.rows = t.rows[:last]
		t.indexRemove(r)
		t.touch()
		t.versions.Add(-1)
		if r.end == 0 {
			t.liveRows.Add(-1)
		} else {
			t.deadVersions.Add(-1)
		}
		return nil
	}
	return fmt.Errorf("table %s: row %d not found", t.Name, r.id)
}
