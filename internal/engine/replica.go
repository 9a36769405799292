package engine

import (
	"errors"
	"fmt"
)

// Replication support: the primary side cuts a consistent snapshot against
// the WAL's record-sequence stream; the replica side loads it and applies the
// shipped records through an Applier — the one way a WAL record becomes
// state, which Recover replays its log through as well (recover.go). A record
// is one committed transaction and is applied whole:
//
//   - Each entry is applied under its table's write lock, in the caller's
//     transaction: its versions and end marks carry that transaction's id,
//     and its undo log collects how to take them back. A replica applies a
//     record in a registered apply transaction, so a concurrent snapshot
//     classifies the half-applied record as uncommitted and skips it — the
//     transaction is active at the cut or registered after it; the record's
//     stamps are the primary's, which the replica's clock may be past, so
//     they alone would not exclude it. Committing it after the clock has
//     passed the record's stamps is the atomic visibility flip — a read sees a record all or nothing, and
//     records become visible strictly in ship order, so every snapshot is a
//     prefix of the primary's commit history. A record that fails part-way
//     is rolled back, never committed: no snapshot ever sees part of it.
//     Recover applies a record at boot, to a quiescent database, in
//     transaction 0, which is committed from the start.
//   - Indexes, the primary key's included, are maintained entry by entry;
//     CREATE INDEX builds the index at once. A replayed version is appended
//     without the primary-key rule (claimKey): the log is a history the
//     primary already checked, and it may hold two live versions of a key
//     for a while — a version a table file written after VACUUM pruned it
//     comes back from the log (its end mark follows), or an earlier primary
//     let a transaction reuse a key another had freed and not yet committed
//     (TestApplyKeyFreedByALaterCommit). Either way the key's holder is its
//     newest live version once the record that ends the other is applied,
//     and a rollback needs no key step: removing a version or clearing an
//     end mark is the key change.
//   - walStmt entries rebuild the transaction history with the record's WAL
//     sequence, and a walVacuum entry is applied with one prune.
//
// The snapshot cut leans on the same commitMu argument as Checkpoint:
// committers hold it shared across WAL-append + active-set removal, so with
// it held exclusively no transaction is between those two steps. Every
// record with sequence ≤ cut belongs to a transaction the snapshot sees,
// and every transaction the snapshot misses will flush at a sequence > cut:
// snapshot and stream partition the history exactly at the cut.

// ErrReadOnly is returned for write statements while the database is in
// read-only mode (a replica before promotion). Match with errors.Is.
var ErrReadOnly = errors.New("database is read-only (replica)")

// TableImage is one table's snapshot encoding (the checkpoint .tbl file
// format) as shipped to a bootstrapping replica.
type TableImage struct {
	Name string
	Data []byte
}

// ReplSnapshot is a consistent snapshot of the whole database paired with
// the WAL record sequence it cuts the log at: records with sequence ≤
// CutSeq are contained in the images, records after it are not.
type ReplSnapshot struct {
	Tables []TableImage
	CutSeq uint64
}

// ReplicationSnapshot captures a snapshot for replica bootstrap. It holds
// the commit barrier only while copying the catalog and recording the cut;
// table encoding happens afterwards under per-table read locks, like
// Checkpoint. Requires an attached WAL (the cut is a WAL position).
func (db *DB) ReplicationSnapshot() (*ReplSnapshot, error) {
	db.commitMu.Lock()
	if db.wal == nil {
		db.commitMu.Unlock()
		return nil, fmt.Errorf("replication snapshot: no WAL attached")
	}
	tables := db.tableList()
	snap := db.takeSnapshot(0)
	cut := db.wal.Seq()
	db.commitMu.Unlock()

	rs := &ReplSnapshot{CutSeq: cut, Tables: make([]TableImage, 0, len(tables))}
	horizon := db.vacuumHorizon.Load()
	for _, t := range tables {
		t.mu.RLock()
		data, _ := encodeTable(t, snap, horizon)
		t.mu.RUnlock()
		rs.Tables = append(rs.Tables, TableImage{Name: t.Name, Data: data})
	}
	return rs, nil
}

// ClearForReplication drops every table, returning the database to empty
// before a (re-)bootstrap loads a fresh snapshot. Reads racing a bootstrap
// see an empty or partial catalog; the replication layer gates client reads
// until the bootstrap completes.
func (db *DB) ClearForReplication() {
	db.mu.Lock()
	db.tables = make(map[string]*Table)
	db.mu.Unlock()
}

// LoadTableImage installs one snapshot table image (replacing any same-named
// table) and advances the row-id generator past its rows.
func (db *DB) LoadTableImage(data []byte) (string, error) {
	img, err := decodeTable(data)
	if err != nil {
		return "", fmt.Errorf("load table image: %w", err)
	}
	db.installTable(img)
	return img.t.Name, nil
}

// FinishLoad aligns the statement-id generator and the logical clock with
// everything the loaded images reference, as Recover does after loading its
// table files. Call once after the last LoadTableImage.
func (db *DB) FinishLoad() {
	db.finishRecovery()
}

// Applier turns WAL records into state: a replica applies the records its
// primary ships through one, and Recover replays its log through one. It
// keeps the version index that makes re-application idempotent; use one
// Applier per bootstrap (a fresh snapshot invalidates the index). Not safe
// for concurrent use — records are a serial stream.
type Applier struct {
	db *DB
	// versions holds, per table, every stored version by (row id, version),
	// built on first use — applying a short log over a large checkpoint
	// should not index untouched tables.
	versions map[string]map[TupleRef]*storedRow
}

// NewApplier returns an applier over the database's current contents.
func (db *DB) NewApplier() *Applier {
	return &Applier{db: db, versions: map[string]map[TupleRef]*storedRow{}}
}

// ApplyRecord applies one committed transaction's record (the payload bytes
// of a WAL record, as produced by SplitWALBatch) that sits at sequence seq of
// the primary's log, and returns the highest logical timestamp it carried.
// The record's effects become visible to concurrent snapshot reads
// atomically, after the replica clock has been advanced past them; a record
// that fails is rolled back and never becomes visible.
func (a *Applier) ApplyRecord(seq uint64, payload []byte) (uint64, error) {
	x := a.db.beginTxn()
	maxTS, err := a.apply(x, seq, payload)
	if err != nil {
		if rerr := x.rollback(); rerr != nil {
			err = fmt.Errorf("%w (rollback: %v)", err, rerr)
		}
		clear(a.versions) // it names the versions the rollback removed
		return 0, fmt.Errorf("replication apply: %w", err)
	}
	a.db.endTxnCommitted(x.id)
	return maxTS, nil
}

// apply is the one record loop: it applies the record at sequence seq in x
// and advances the clock past its stamps. Publishing x — committing it, or at
// boot, where x is transaction 0, nothing — or rolling it back is the
// caller's.
func (a *Applier) apply(x *Txn, seq uint64, payload []byte) (uint64, error) {
	txnID, entries, err := decodeWALTxn(payload)
	if err != nil {
		return 0, err
	}
	var maxTS, horizon uint64
	for _, e := range entries {
		switch e.kind {
		case walStmt:
			// History is keyed by the primary's transaction id — the id
			// REENACT is asked about.
			a.db.recordRecoveredStmt(txnID, e, seq)
		case walVacuum:
			horizon = max(horizon, e.version)
		default:
			if err := a.applyEntry(x, e); err != nil {
				return 0, err
			}
		}
		maxTS = max(maxTS, e.version, e.end)
	}
	if horizon > 0 {
		// The horizon the primary logged, applied verbatim — no clamp to the
		// active snapshots — so both sides converge on the same version set.
		// (A read transaction whose snapshot predates it may stop seeing
		// already-dead versions: the primary made that call when it chose
		// the horizon.)
		a.db.vacuumMu.Lock()
		a.db.pruneTo(horizon)
		a.db.vacuumMu.Unlock()
		clear(a.versions) // it names the versions the prune removed
	}
	// Advance the clock before the visibility flip so any snapshot that can
	// see this record also post-dates its timestamps.
	a.db.clock.AdvanceTo(maxTS)
	return maxTS, nil
}

// applyEntry applies one data or DDL entry in x (see the rules at the top of
// this file). An entry whose effect is already present — a table, index or
// version a newer checkpoint or snapshot holds, or an end mark already placed
// — is skipped.
func (a *Applier) applyEntry(x *Txn, e redoEntry) error {
	db := a.db
	switch e.kind {
	case walCreate, walDrop, walCreateIndex, walDropIndex:
		// Applied DDL changes the catalog under live readers: invalidate any
		// plans cached against the old shape.
		db.bumpDDLEpoch()
	}
	switch e.kind {
	case walCreate:
		db.mu.Lock()
		if _, exists := db.tables[e.table]; !exists {
			db.tables[e.table] = newTable(e.table, e.schema)
		}
		db.mu.Unlock()
		return nil
	case walDrop:
		db.mu.Lock()
		delete(db.tables, e.table)
		db.mu.Unlock()
		delete(a.versions, e.table)
		return nil
	}
	t, err := db.lookupTable(e.table)
	if err != nil {
		if e.kind == walDropIndex {
			return nil // the table itself is gone
		}
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch e.kind {
	case walInsert:
		return a.insert(x, t, e)
	case walEnd:
		// A missing version is fine: the checkpoint or snapshot may already
		// exclude it.
		if r := a.versionsOf(t)[TupleRef{Row: e.id, Version: e.version}]; r != nil && r.end == 0 {
			t.setEnd(r, e.end, x.id)
			x.logUndo(t, undoDelete(t, r))
		}
	case walCreateIndex:
		if t.findIndex(e.idxName) != nil {
			return nil
		}
		pos := t.Schema.ColumnIndex(e.idxCol)
		if pos < 0 {
			return fmt.Errorf("index %q: table %q has no column %q", e.idxName, e.table, e.idxCol)
		}
		ix := newTableIndex(e.idxName, e.idxCol, pos, e.idxKind)
		ix.rebuild(t.rows)
		t.addIndex(ix)
	case walDropIndex:
		t.removeIndex(e.idxName)
	}
	return nil
}

// insert applies a walInsert entry: the version is checked as a row and
// appended, with no key check. Caller holds the table write lock.
func (a *Applier) insert(x *Txn, t *Table, e redoEntry) error {
	m := a.versionsOf(t)
	ref := TupleRef{Row: e.id, Version: e.version}
	if m[ref] != nil {
		return nil
	}
	r := &storedRow{id: e.id, vals: e.vals, version: e.version, proc: e.proc, stmt: e.stmt, txnID: x.id}
	if err := t.admitRow(r); err != nil {
		return err
	}
	t.appendLive(r)
	m[ref] = r
	x.logUndo(t, undoInsert(t, r))
	a.db.advanceNextRow(e.id)
	a.db.advanceNextStmt(e.stmt)
	return nil
}

// versionsOf returns t's version index, building it on first use.
func (a *Applier) versionsOf(t *Table) map[TupleRef]*storedRow {
	m, ok := a.versions[t.Name]
	if !ok {
		m = make(map[TupleRef]*storedRow, len(t.rows))
		for _, r := range t.rows {
			m[TupleRef{Row: r.id, Version: r.version}] = r
		}
		a.versions[t.Name] = m
	}
	return m
}
