package engine

import (
	"fmt"
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
// write lock (set by UPDATE/DELETE, cleared again by rollback); usedBy is
// atomic because lineage-collecting reads stamp it while holding only the
// read lock.
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
// versions plus a primary-key hash index over the *live latest* versions.
// The RWMutex is the table's entry in the engine's lock hierarchy: statements
// acquire table locks (readers share, writers exclude) after resolving names
// under the DB catalog lock and never the other way around.
type Table struct {
	Name   string
	Schema Schema

	mu      sync.RWMutex
	rows    []*storedRow
	pkIndex map[string]*storedRow // GroupKey of pk value -> live latest version; nil if no pk

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
}

func newTable(name string, schema Schema) *Table {
	t := &Table{Name: name, Schema: schema}
	if schema.PrimaryKeyIndex() >= 0 {
		t.pkIndex = make(map[string]*storedRow)
	}
	return t
}

// RowCount returns the number of live (not end-marked) tuple versions.
func (t *Table) RowCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, r := range t.rows {
		if r.end == 0 {
			n++
		}
	}
	return n
}

// insertRow validates and appends a row version, enforcing the primary key
// (caller holds the table write lock).
func (t *Table) insertRow(r *storedRow) error {
	if len(r.vals) != len(t.Schema.Columns) {
		return fmt.Errorf("table %s: row has %d values, schema has %d columns",
			t.Name, len(r.vals), len(t.Schema.Columns))
	}
	for i, c := range t.Schema.Columns {
		v, err := checkValue(c, r.vals[i])
		if err != nil {
			return fmt.Errorf("table %s: %w", t.Name, err)
		}
		r.vals[i] = v
	}
	if pk := t.Schema.PrimaryKeyIndex(); pk >= 0 {
		key := r.vals[pk].GroupKey()
		if _, dup := t.pkIndex[key]; dup {
			return fmt.Errorf("table %s: duplicate primary key %s", t.Name, r.vals[pk])
		}
		t.pkIndex[key] = r
	}
	t.rows = append(t.rows, r)
	t.indexInsert(r)
	t.versions.Add(1)
	t.liveRows.Add(1)
	return nil
}

// removeRow physically removes a version (insert rollback only), keeping the
// pk index consistent. Searches from the end: rolled-back inserts are recent.
func (t *Table) removeRow(r *storedRow) error {
	for i := len(t.rows) - 1; i >= 0; i-- {
		if t.rows[i] != r {
			continue
		}
		if pk := t.Schema.PrimaryKeyIndex(); pk >= 0 {
			key := r.vals[pk].GroupKey()
			if t.pkIndex[key] == r {
				delete(t.pkIndex, key)
			}
		}
		last := len(t.rows) - 1
		t.rows[i] = t.rows[last]
		t.rows = t.rows[:last]
		t.indexRemove(r)
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

// restorePK re-points the pk index at a version whose end mark is being
// rolled back. A concurrent insert may have claimed the key while the
// delete/update was uncommitted — that collision surfaces here.
func (t *Table) restorePK(r *storedRow) error {
	pk := t.Schema.PrimaryKeyIndex()
	if pk < 0 {
		return nil
	}
	key := r.vals[pk].GroupKey()
	if cur, ok := t.pkIndex[key]; ok && cur != r {
		return fmt.Errorf("table %s: rollback conflict: primary key %s was re-used by a concurrent transaction", t.Name, r.vals[pk])
	}
	t.pkIndex[key] = r
	return nil
}
