package engine

import (
	"fmt"
	"path"
	"time"
)

// Crash recovery: load the latest checkpoint, replay the WAL tail over it,
// drop the torn suffix a crash may have left, and re-attach the log for new
// commits. Replay is idempotent — an entry whose effect is already present
// (because a table file written mid-checkpoint is newer than the record) is
// skipped — which is what makes the checkpoint protocol safe without any
// cross-file atomicity: a crash anywhere during Checkpoint leaves a mix of
// old and new table files plus a log that covers at least everything the
// old files miss.

// RecoveryStats reports what Recover found and did.
type RecoveryStats struct {
	Tables          int   // tables loaded from the checkpoint
	ReplayedTxns    int   // WAL records applied
	ReplayedEntries int   // redo entries applied (skipped ones included)
	WALBytes        int64 // valid log bytes scanned
	TornBytes       int64 // trailing bytes discarded as torn/corrupt
}

// ClockAdvancer is implemented by clocks that can jump forward. Recovery
// uses it to push the logical clock past every timestamp the restored state
// carries, so new ticks never collide with (or sort before) recovered
// versions and end marks.
type ClockAdvancer interface {
	// AdvanceTo moves the clock to at least t.
	AdvanceTo(t uint64)
}

// AdvanceTo implements ClockAdvancer for the default counter clock.
func (c *counterClock) AdvanceTo(t uint64) {
	for {
		cur := c.t.Load()
		if cur >= t || c.t.CompareAndSwap(cur, t) {
			return
		}
	}
}

// Recover restores the database from dir: it loads the checkpointed table
// files, replays every intact WAL record after them, truncates any torn log
// tail, advances the id generators and the logical clock past the restored
// state, and attaches the WAL so subsequent commits are logged. It must run
// on a quiescent DB (no open sessions) — the boot path.
func (db *DB) Recover(fs FileSystem, dir string) (RecoveryStats, error) {
	var st RecoveryStats
	t0 := time.Now()
	if err := fs.MkdirAll(dir); err != nil {
		return st, fmt.Errorf("recover: %w", err)
	}
	if err := db.LoadDir(fs, dir); err != nil {
		return st, fmt.Errorf("recover: %w", err)
	}
	st.Tables = len(db.TableNames())

	walPath := path.Join(dir, WALFileName)
	data, err := fs.ReadFile(walPath)
	if err != nil {
		// No log yet: first boot. Create an empty one so appends have a
		// well-formed file to extend.
		data = []byte(walMagic)
		if werr := fs.WriteFile(walPath, data); werr != nil {
			return st, fmt.Errorf("recover: create wal: %w", werr)
		}
	}

	idx := newReplayIndex(db)
	var recHorizon, maxTick uint64
	var seq uint64
	valid, err := scanWAL(data, func(payload []byte) error {
		txnID, entries, derr := decodeWALTxn(payload)
		if derr != nil {
			return derr
		}
		seq++
		for _, e := range entries {
			switch e.kind {
			case walVacuum:
				// Track the highest logged horizon; the prune itself re-runs
				// after replay settles the final version set (idempotent).
				if e.version > recHorizon {
					recHorizon = e.version
				}
				if e.version > maxTick {
					maxTick = e.version
				}
			case walStmt:
				db.recordRecoveredStmt(txnID, e, seq)
				if e.end > maxTick {
					maxTick = e.end
				}
			default:
				if aerr := db.applyRedo(idx, e); aerr != nil {
					return aerr
				}
			}
			st.ReplayedEntries++
		}
		st.ReplayedTxns++
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("recover: replay: %w", err)
	}
	st.WALBytes = valid
	st.TornBytes = int64(len(data)) - valid
	if st.TornBytes > 0 {
		// Drop the torn tail before re-opening for append: records written
		// after a tear would be unreachable to the next recovery.
		data = data[:valid]
		if err := fs.WriteFile(walPath, data); err != nil {
			return st, fmt.Errorf("recover: truncate torn tail: %w", err)
		}
	}

	db.finishRecovery()
	if adv, ok := db.clock.(ClockAdvancer); ok {
		adv.AdvanceTo(maxTick)
	}
	if recHorizon > 0 {
		// Re-establish the retention floor and re-apply the prune: a crash
		// mid-vacuum may have left versions below the logged horizon.
		db.advanceHorizon(recHorizon)
		db.pruneVersions(recHorizon)
		db.pruneMetaBelow(recHorizon)
	}
	mRecoveredTxns.Add(int64(st.ReplayedTxns))
	hRecoveryNS.Observe(time.Since(t0))
	db.SetWAL(openWAL(fs, dir, data))
	return st, nil
}

// EnableWAL attaches a write-ahead log under dir without restoring any
// state — the fresh-database path (Recover subsumes it on reboots).
func (db *DB) EnableWAL(fs FileSystem, dir string) error {
	if err := fs.MkdirAll(dir); err != nil {
		return fmt.Errorf("enable wal: %w", err)
	}
	walPath := path.Join(dir, WALFileName)
	data, err := fs.ReadFile(walPath)
	if err != nil {
		data = []byte(walMagic)
		if werr := fs.WriteFile(walPath, data); werr != nil {
			return fmt.Errorf("enable wal: %w", werr)
		}
	} else if _, serr := scanWAL(data, nil); serr != nil {
		return fmt.Errorf("enable wal: %w", serr)
	}
	db.SetWAL(openWAL(fs, dir, data))
	return nil
}

// SetWAL attaches (or detaches, with nil) the log every subsequent commit
// writes through. Boot-time only with respect to in-flight commits.
func (db *DB) SetWAL(w *WAL) {
	db.commitMu.Lock()
	db.wal = w
	db.commitMu.Unlock()
}

// WAL returns the attached log, or nil.
func (db *DB) WAL() *WAL {
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	return db.wal
}

// replayIndex accelerates idempotency checks: per table, every stored
// version keyed by (row id, version). Built lazily per table — recovery of
// a short log over a large checkpoint should not index untouched tables.
type replayIndex struct {
	db     *DB
	tables map[string]map[TupleRef]*storedRow
}

func newReplayIndex(db *DB) *replayIndex {
	return &replayIndex{db: db, tables: map[string]map[TupleRef]*storedRow{}}
}

func (ix *replayIndex) forTable(t *Table) map[TupleRef]*storedRow {
	m, ok := ix.tables[t.Name]
	if !ok {
		m = make(map[TupleRef]*storedRow, len(t.rows))
		for _, r := range t.rows {
			m[TupleRef{Row: r.id, Version: r.version}] = r
		}
		ix.tables[t.Name] = m
	}
	return m
}

// applyRedo applies one redo entry to the quiescent database. Inserts and
// end marks skip work already present; DDL skips already-done operations.
// Primary-key indexes are not maintained here — finishRecovery rebuilds
// them once the final live set is known, because replaying over a
// mid-checkpoint mix can transiently hold two versions of one key.
func (db *DB) applyRedo(ix *replayIndex, e redoEntry) error {
	switch e.kind {
	case walCreate, walDrop, walCreateIndex, walDropIndex:
		// Replayed DDL changes the catalog like executed DDL does:
		// invalidate any plans cached against the old shape.
		db.bumpDDLEpoch()
	}
	switch e.kind {
	case walCreate:
		if _, err := db.lookupTable(e.table); err == nil {
			return nil // already present (newer checkpoint or rerun)
		}
		db.mu.Lock()
		db.tables[e.table] = newTable(e.table, e.schema)
		db.mu.Unlock()
		return nil
	case walDrop:
		db.mu.Lock()
		delete(db.tables, e.table)
		db.mu.Unlock()
		delete(ix.tables, e.table)
		return nil
	case walInsert:
		t, err := db.lookupTable(e.table)
		if err != nil {
			return fmt.Errorf("wal replay: insert into %q: %w", e.table, err)
		}
		m := ix.forTable(t)
		key := TupleRef{Row: e.id, Version: e.version}
		if _, exists := m[key]; exists {
			return nil // checkpoint already holds this version
		}
		if len(e.vals) != len(t.Schema.Columns) {
			return fmt.Errorf("wal replay: table %s: row has %d values, schema has %d columns",
				t.Name, len(e.vals), len(t.Schema.Columns))
		}
		r := &storedRow{id: e.id, vals: e.vals, version: e.version, proc: e.proc, stmt: e.stmt}
		t.rows = append(t.rows, r)
		t.versions.Add(1)
		t.liveRows.Add(1)
		t.touch()
		m[key] = r
		return nil
	case walCreateIndex:
		t, err := db.lookupTable(e.table)
		if err != nil {
			return fmt.Errorf("wal replay: create index on %q: %w", e.table, err)
		}
		if t.findIndex(e.idxName) != nil {
			return nil // already present (newer checkpoint or rerun)
		}
		pos := t.Schema.ColumnIndex(e.idxCol)
		if pos < 0 {
			return fmt.Errorf("wal replay: index %q: table %q has no column %q", e.idxName, e.table, e.idxCol)
		}
		// Register the definition only; finishRecovery builds the contents
		// once replay has settled the final version set.
		t.addIndex(newTableIndex(e.idxName, e.idxCol, pos, e.idxKind))
		return nil
	case walDropIndex:
		t, err := db.lookupTable(e.table)
		if err != nil {
			return nil // table itself dropped later in the log or before the checkpoint
		}
		t.removeIndex(e.idxName)
		return nil
	case walEnd:
		t, err := db.lookupTable(e.table)
		if err != nil {
			return fmt.Errorf("wal replay: end mark on %q: %w", e.table, err)
		}
		if r, ok := ix.forTable(t)[TupleRef{Row: e.id, Version: e.version}]; ok && r.end == 0 {
			t.setEnd(r, e.end, 0)
		}
		// A missing version is fine: the checkpoint may already exclude it
		// (superseded versions are not checkpointed).
		return nil
	}
	return fmt.Errorf("wal replay: unknown redo kind %d", e.kind)
}

// finishRecovery rebuilds every primary-key index from the live versions
// and advances the row/statement/clock generators past everything the
// restored state references.
func (db *DB) finishRecovery() {
	var maxTS uint64
	var maxStmt int64
	var maxRow RowID
	for _, t := range db.tableList() {
		if t.pkIndex != nil {
			t.pkIndex = make(map[valKey]*storedRow, len(t.rows))
		}
		pk := t.Schema.PrimaryKeyIndex()
		for _, r := range t.rows {
			if r.version > maxTS {
				maxTS = r.version
			}
			if r.end > maxTS {
				maxTS = r.end
			}
			if r.stmt > maxStmt {
				maxStmt = r.stmt
			}
			maxRow = max(maxRow, r.id)
			if pk >= 0 && r.end == 0 {
				t.pkIndex[keyOf(r.vals[pk])] = r
			}
		}
		// WAL replay appends raw rows without touching secondary indexes;
		// rebuild them now that the final version set is known.
		t.rebuildIndexes()
	}
	db.advanceNextRow(maxRow)
	for {
		cur := db.nextStmt.Load()
		if maxStmt <= cur || db.nextStmt.CompareAndSwap(cur, maxStmt) {
			break
		}
	}
	if adv, ok := db.clock.(ClockAdvancer); ok {
		adv.AdvanceTo(maxTS)
	}
}
