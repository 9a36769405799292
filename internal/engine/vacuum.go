package engine

import (
	"fmt"
	"time"

	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Version retention and vacuum. MVCC never reclaims superseded tuple
// versions on its own — the history is the product — so the store grows
// without bound under churn. A vacuum pass fixes the retention horizon (the
// oldest tick still readable via AS OF), logs it as a walVacuum record so
// the floor survives crashes and reaches replicas, and then physically
// removes every committed version end-marked at or before it, rebuilding
// secondary indexes per table. The effective horizon is additionally bounded
// by the oldest active transaction snapshot: nothing a live reader could
// still see is reclaimed.

// VacuumResult reports one pass's outcome.
type VacuumResult struct {
	Horizon  uint64 // the retention floor after the pass
	Pruned   int64  // versions physically reclaimed
	Deferred bool   // pass skipped: a snapshot capture was in flight
}

// VacuumTo runs one vacuum pass aiming at the requested horizon. The applied
// horizon is clamped to the oldest active transaction snapshot and never
// moves backwards. Safe for concurrent use; passes are serialized.
func (db *DB) VacuumTo(requested uint64) (VacuumResult, error) {
	db.vacuumMu.Lock()
	defer db.vacuumMu.Unlock()
	t0 := time.Now()

	h := requested
	deferred := false
	db.txnMu.RLock()
	for _, ts := range db.activeTxns {
		if ts == 0 {
			// A transaction is between registration and snapshot capture; its
			// snapshot tick is unknown, so no bound is safe. Defer the pass.
			deferred = true
			break
		}
		if ts < h {
			h = ts
		}
	}
	db.txnMu.RUnlock()
	if deferred {
		db.vacuumDeferred.Add(1)
		mVacuumDefers.Inc()
		return VacuumResult{Horizon: db.vacuumHorizon.Load(), Deferred: true}, nil
	}
	if cur := db.vacuumHorizon.Load(); h < cur {
		h = cur // the retention floor is monotone
	}

	// Durability first: a crash after this record re-applies the prune on
	// recovery; a crash before it leaves extra history, never missing rows.
	db.commitMu.RLock()
	if db.wal != nil {
		if _, err := db.wal.Commit(encodeWALTxn(0, []redoEntry{{kind: walVacuum, version: h}})); err != nil {
			db.commitMu.RUnlock()
			return VacuumResult{}, fmt.Errorf("vacuum: %w", err)
		}
	}
	db.commitMu.RUnlock()

	pruned := db.pruneTo(h)
	db.vacuumLastNS.Store(int64(time.Since(t0)))
	hVacuumNS.Observe(time.Since(t0))
	return VacuumResult{Horizon: h, Pruned: pruned}, nil
}

// pruneTo is a vacuum pass at horizon h: the retention floor rises to h if it
// is below, and every committed version end-marked at or before h goes, with
// the commit stamps and histories h makes unreachable. The pass runs even
// when the floor does not move: a version may have been end-marked below it
// since the last one. Caller holds vacuumMu.
func (db *DB) pruneTo(h uint64) int64 {
	db.advanceHorizon(h)
	pruned := db.pruneVersions(h)
	db.pruneMetaBelow(h)
	db.vacuumPasses.Add(1)
	db.vacuumPruned.Add(pruned)
	mVacuumPasses.Inc()
	mVacuumPruned.Add(pruned)
	return pruned
}

// advanceHorizon raises the retention horizon to h if it is below it. Every
// table file carries the horizon, so an advance is a change to every table:
// the store comes first, then the touches, and Checkpoint reads a table's
// mutation count before the horizon — an image encoded with the old horizon
// is invalidated by the touch.
func (db *DB) advanceHorizon(h uint64) {
	if h <= db.vacuumHorizon.Load() {
		return
	}
	db.vacuumHorizon.Store(h)
	gVacuumTicks.Set(int64(h))
	for _, t := range db.tableList() {
		t.touch()
	}
}

// pruneVersions removes every committed version end-marked at or before the
// horizon, one table at a time under its write lock, from the table's
// versions and, filtered in place, from its indexes (dead versions are
// indexed too). Returns the number of versions reclaimed.
func (db *DB) pruneVersions(horizon uint64) int64 {
	// One copy of the active set for the whole pass: a transaction that
	// begins mid-pass ticks past the horizon and cannot end-mark below it,
	// and one that commits mid-pass merely survives until the next pass.
	db.txnMu.RLock()
	active := db.activeLocked()
	db.txnMu.RUnlock()
	gone := func(r *storedRow) bool {
		return r.end != 0 && r.end <= horizon && !active.has(r.endTxn) && !active.has(r.txnID)
	}

	var pruned int64
	for _, t := range db.tableList() {
		t.mu.Lock()
		kept := t.rows[:0]
		removed := 0
		for _, r := range t.rows {
			if gone(r) {
				removed++
				continue
			}
			kept = append(kept, r)
		}
		if removed > 0 {
			for i := len(kept); i < len(t.rows); i++ {
				t.rows[i] = nil
			}
			t.rows = kept
			for _, ix := range t.indexList() {
				ix.prune(gone, kept)
			}
			t.touch()
			t.versions.Add(-int64(removed))
			t.deadVersions.Add(-int64(removed))
			t.vacuumPruned.Add(int64(removed))
			pruned += int64(removed)
		}
		t.mu.Unlock()
	}
	return pruned
}

// pruneMetaBelow drops commit timestamps and reenactment history that the
// horizon makes unreachable: AS OF below it is rejected, so neither record
// can ever be consulted again.
func (db *DB) pruneMetaBelow(horizon uint64) {
	db.txnMu.Lock()
	db.dropCommitsLocked(db.commitsUpTo(horizon))
	for id, rec := range db.txnHist {
		if rec.SnapTS < horizon {
			delete(db.txnHist, id)
		}
	}
	db.txnMu.Unlock()
}

// execVacuum serves the VACUUM statement: RETAIN n keeps the last n ticks,
// otherwise the configured retention window applies, otherwise everything
// dead up to the active-snapshot bound is reclaimed. Returns a one-row
// result describing the pass.
func (db *DB) execVacuum(st *sqlparse.Vacuum, opts ExecOptions, res *Result) error {
	now := db.ClockNow()
	if now == 0 {
		now = db.clock.Tick()
	}
	var requested uint64
	switch {
	case st.Retain != nil:
		v, err := evalConst(st.Retain, &execVals{params: opts.Params})
		if err != nil {
			return fmt.Errorf("VACUUM RETAIN: %w", err)
		}
		if v.Kind() != sqlval.KindInt || v.Int() < 0 {
			return fmt.Errorf("VACUUM RETAIN expects a non-negative integer tick count, got %s", v.String())
		}
		if r := uint64(v.Int()); r < now {
			requested = now - r
		}
	case db.retainTicks.Load() > 0:
		if r := db.retainTicks.Load(); r < now {
			requested = now - r
		}
	default:
		requested = now
	}
	vr, err := db.VacuumTo(requested)
	if err != nil {
		return err
	}
	res.RowsAffected = int(vr.Pruned)
	res.Columns = []string{"horizon", "pruned", "deferred"}
	res.Rows = [][]sqlval.Value{{
		sqlval.NewInt(int64(vr.Horizon)),
		sqlval.NewInt(vr.Pruned),
		sqlval.NewBool(vr.Deferred),
	}}
	return nil
}

// VacuumStats is the ldv_stat_vacuum surface.
type VacuumStats struct {
	Horizon     uint64
	RetainTicks uint64
	Passes      int64
	Pruned      int64
	Deferred    int64
	LastPassNS  int64
}

// VacuumStatsSnapshot returns the cumulative vacuum counters.
func (db *DB) VacuumStatsSnapshot() VacuumStats {
	return VacuumStats{
		Horizon:     db.vacuumHorizon.Load(),
		RetainTicks: db.retainTicks.Load(),
		Passes:      db.vacuumPasses.Load(),
		Pruned:      db.vacuumPruned.Load(),
		Deferred:    db.vacuumDeferred.Load(),
		LastPassNS:  db.vacuumLastNS.Load(),
	}
}
