package engine

import (
	"fmt"
	"path"
	"time"
)

// Crash recovery is a replica bootstrap from the data directory: load the
// checkpointed table files, replay the WAL tail over them through the Applier
// a replica runs (replica.go) — each record as transaction 0, committed from
// the start — drop the torn suffix a crash may have left, and re-attach the
// log for new commits. Replay is idempotent, which is what makes the
// checkpoint protocol safe without any cross-file atomicity: a crash anywhere
// during Checkpoint leaves a mix of old and new table files plus a log that
// covers at least everything the old files miss, and replaying that log over
// a file newer than some of its records skips what the file already holds,
// ends and prunes again what the file has already pruned, and leaves a
// primary key to the newer live version holding it (the primary-key rule).

// RecoveryStats reports what Recover found and did.
type RecoveryStats struct {
	Tables       int   // tables loaded from the checkpoint
	ReplayedTxns int   // WAL records applied
	WALBytes     int64 // valid log bytes scanned
	TornBytes    int64 // trailing bytes discarded as torn/corrupt
}

// Recover restores the database from dir: it loads the checkpointed table
// files, replays every intact WAL record after them, truncates any torn log
// tail, and attaches the WAL so subsequent commits are logged. The id
// generators and the logical clock end past the restored state. It must run
// on a quiescent DB (no open sessions) — the boot path.
func (db *DB) Recover(fs FileSystem, dir string) (RecoveryStats, error) {
	var st RecoveryStats
	t0 := time.Now()
	data, err := openLog(fs, dir)
	if err != nil {
		return st, fmt.Errorf("recover: %w", err)
	}
	if err := db.LoadDir(fs, dir); err != nil {
		return st, fmt.Errorf("recover: %w", err)
	}
	db.finishRecovery()
	st.Tables = len(db.TableNames())

	a, boot := db.NewApplier(), &Txn{db: db}
	valid, err := scanWAL(data, func(payload []byte) error {
		st.ReplayedTxns++
		boot.undo = boot.undo[:0] // nothing rolls the boot transaction back
		_, err := a.apply(boot, uint64(st.ReplayedTxns), payload)
		return err
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
		if err := fs.WriteFile(path.Join(dir, WALFileName), data); err != nil {
			return st, fmt.Errorf("recover: truncate torn tail: %w", err)
		}
	}
	mRecoveredTxns.Add(int64(st.ReplayedTxns))
	hRecoveryNS.Observe(time.Since(t0))
	db.SetWAL(openWAL(fs, dir, data))
	return st, nil
}

// EnableWAL attaches a write-ahead log under dir without restoring any
// state — the fresh-database path (Recover subsumes it on reboots).
func (db *DB) EnableWAL(fs FileSystem, dir string) error {
	data, err := openLog(fs, dir)
	if err == nil {
		_, err = scanWAL(data, nil)
	}
	if err != nil {
		return fmt.Errorf("enable wal: %w", err)
	}
	db.SetWAL(openWAL(fs, dir, data))
	return nil
}

// openLog reads the log under dir. On first boot there is none: it creates
// the directory and an empty log, so appends have a well-formed file to
// extend.
func openLog(fs FileSystem, dir string) ([]byte, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	walPath := path.Join(dir, WALFileName)
	if data, err := fs.ReadFile(walPath); err == nil {
		return data, nil
	}
	data := []byte(walMagic)
	if err := fs.WriteFile(walPath, data); err != nil {
		return nil, fmt.Errorf("create wal: %w", err)
	}
	return data, nil
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

// finishRecovery advances the row and statement generators and the logical
// clock past every version the loaded tables hold: what loading a checkpoint
// (Recover) or a snapshot (the replica bootstrap) needs before records apply
// over it.
func (db *DB) finishRecovery() {
	var maxTS uint64
	var maxStmt int64
	var maxRow RowID
	for _, t := range db.tableList() {
		for _, r := range t.rows {
			maxTS = max(maxTS, r.version, r.end)
			maxStmt = max(maxStmt, r.stmt)
			maxRow = max(maxRow, r.id)
		}
	}
	db.advanceNextRow(maxRow)
	db.advanceNextStmt(maxStmt)
	db.clock.AdvanceTo(maxTS)
}
