package engine

import (
	"fmt"
	"sort"

	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Time-travel support: the commit-timestamp registry historical (AS OF)
// snapshots classify transactions with, and the per-transaction statement
// history REENACT TRANSACTION replays. Both are bounded in memory — vacuum
// prunes them below the retention horizon, and hard caps evict the oldest
// half under sustained churn so an un-vacuumed database degrades (oldest
// history first) instead of growing without bound.

// committedTsCap bounds the commit-timestamp registry; when exceeded, the
// oldest half (by commit tick) is dropped. AS OF reads older than the
// dropped range then resolve with write-stamp-only precision, matching the
// post-restart behavior.
const committedTsCap = 65536

// txnHistCap bounds the reenactment history; the oldest half (by snapshot
// tick) is dropped when exceeded.
const txnHistCap = 4096

// StmtRecord is one statement of a committed transaction's history, as
// REENACT replays it: the normalized SQL, its bound parameters, its
// start/end ticks on the logical timeline, and the row count it reported.
type StmtRecord struct {
	SQL    string
	Kind   string // "select", "insert", "update", "delete"
	Start  uint64
	End    uint64
	Rows   int
	Params []sqlval.Value
}

// TxnRecord is the reenactment history of one committed transaction.
type TxnRecord struct {
	TxnID     int64
	SnapTS    uint64 // the snapshot tick its statements read at
	CommitTS  uint64 // the tick it became visible at
	CommitSeq uint64 // its WAL record sequence (0 when nothing was logged)
	Stmts     []StmtRecord
}

// redoEntry converts a history statement into its walStmt redo form (see
// the field mapping on redoEntry).
func (h StmtRecord) redoEntry(snapTS uint64) redoEntry {
	return redoEntry{
		kind:    walStmt,
		table:   h.Kind,
		id:      RowID(snapTS),
		version: h.Start,
		end:     h.End,
		proc:    h.SQL,
		stmt:    int64(h.Rows),
		vals:    h.Params,
	}
}

// stmtKindName labels a statement for the history record.
func stmtKindName(stmt sqlparse.Statement) string {
	switch stmt.(type) {
	case *sqlparse.Select:
		return "select"
	case *sqlparse.Insert:
		return "insert"
	case *sqlparse.Update:
		return "update"
	case *sqlparse.Delete:
		return "delete"
	default:
		return "other"
	}
}

// commitTxnHist publishes a committed transaction's statement history.
func (db *DB) commitTxnHist(x *Txn, cts, seq uint64) {
	if len(x.hist) == 0 {
		return
	}
	rec := &TxnRecord{
		TxnID:     x.id,
		SnapTS:    x.snap.ts,
		CommitTS:  cts,
		CommitSeq: seq,
		Stmts:     append([]StmtRecord(nil), x.hist...),
	}
	db.txnMu.Lock()
	db.txnHist[x.id] = rec
	if len(db.txnHist) > txnHistCap {
		db.pruneTxnHistLocked()
	}
	db.txnMu.Unlock()
}

// recordRecoveredStmt rebuilds transaction history from a walStmt entry of
// the record at WAL sequence seq, on the apply path (recovery and
// replication). It also advances nextTxn past the recovered id so a restarted
// primary never reissues a transaction id that the history still refers to.
func (db *DB) recordRecoveredStmt(txnID int64, e redoEntry, seq uint64) {
	db.txnMu.Lock()
	rec := db.txnHist[txnID]
	if rec == nil {
		rec = &TxnRecord{TxnID: txnID, SnapTS: uint64(e.id), CommitSeq: seq}
		db.txnHist[txnID] = rec
	}
	rec.Stmts = append(rec.Stmts, StmtRecord{
		SQL:    e.proc,
		Kind:   e.table,
		Start:  e.version,
		End:    e.end,
		Rows:   int(e.stmt),
		Params: e.vals,
	})
	if e.end > rec.CommitTS {
		rec.CommitTS = e.end
	}
	if txnID > db.nextTxn {
		db.nextTxn = txnID
	}
	if len(db.txnHist) > txnHistCap {
		db.pruneTxnHistLocked()
	}
	db.txnMu.Unlock()
}

// TxnHistory returns a copy of a committed transaction's reenactment
// history, if retained.
func (db *DB) TxnHistory(id int64) (TxnRecord, bool) {
	db.txnMu.RLock()
	rec, ok := db.txnHist[id]
	db.txnMu.RUnlock()
	if !ok {
		return TxnRecord{}, false
	}
	out := *rec
	out.Stmts = append([]StmtRecord(nil), rec.Stmts...)
	return out, true
}

// txnHistSnapshot returns copies of every retained history record, ordered
// by transaction id (the ldv_stat_versions provider; no engine locks beyond
// txnMu are taken).
func (db *DB) txnHistSnapshot() []TxnRecord {
	db.txnMu.RLock()
	out := make([]TxnRecord, 0, len(db.txnHist))
	for _, rec := range db.txnHist {
		c := *rec
		c.Stmts = append([]StmtRecord(nil), rec.Stmts...)
		out = append(out, c)
	}
	db.txnMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].TxnID < out[j].TxnID })
	return out
}

// pruneCommittedTsLocked drops the oldest half of the commit-timestamp
// registry (by commit tick). Caller holds txnMu.
func (db *DB) pruneCommittedTsLocked() {
	ts := make([]uint64, 0, len(db.committedTs))
	for _, cts := range db.committedTs {
		ts = append(ts, cts)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	median := ts[len(ts)/2]
	for id, cts := range db.committedTs {
		if cts < median {
			delete(db.committedTs, id)
		}
	}
}

// pruneTxnHistLocked drops the oldest half of the reenactment history (by
// snapshot tick). Caller holds txnMu.
func (db *DB) pruneTxnHistLocked() {
	ts := make([]uint64, 0, len(db.txnHist))
	for _, rec := range db.txnHist {
		ts = append(ts, rec.SnapTS)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	median := ts[len(ts)/2]
	for id, rec := range db.txnHist {
		if rec.SnapTS < median {
			delete(db.txnHist, id)
		}
	}
}

// resolveAsOf turns a statement's AS OF clause (or, absent one, the
// execution option) into a validated historical tick: a non-negative
// integer at or above the vacuum horizon.
func (db *DB) resolveAsOf(e sqlparse.Expr, opts ExecOptions) (uint64, error) {
	t := opts.AsOf
	if e != nil {
		v, err := evalConst(e, &execVals{params: opts.Params})
		if err != nil {
			return 0, fmt.Errorf("AS OF: %w", err)
		}
		if v.Kind() != sqlval.KindInt || v.Int() < 0 {
			return 0, fmt.Errorf("AS OF expects a non-negative integer tick, got %s", v.String())
		}
		t = uint64(v.Int())
	}
	if h := db.vacuumHorizon.Load(); t < h {
		mAsOfRejected.Inc()
		return 0, fmt.Errorf("AS OF %d is below the vacuum horizon %d: those versions have been reclaimed", t, h)
	}
	mAsOfQueries.Inc()
	return t, nil
}

// VacuumHorizon returns the current retention floor: the oldest tick AS OF
// can still read at.
func (db *DB) VacuumHorizon() uint64 { return db.vacuumHorizon.Load() }

// SetRetainTicks configures the retention window bare VACUUM and the
// background vacuumer apply: versions dead for more than n ticks become
// reclaimable (0 keeps everything up to the active-snapshot bound).
func (db *DB) SetRetainTicks(n uint64) { db.retainTicks.Store(n) }

// RetainTicks returns the configured retention window.
func (db *DB) RetainTicks() uint64 { return db.retainTicks.Load() }
