package engine

import (
	"ldv/internal/obs"
	"ldv/internal/sqlparse"
)

// Observability handles for the statement execution hot path. Updates are
// single atomic operations; handle creation (and description registration)
// happens once at init.
var (
	mStmts        = obs.NewCounter("engine.stmts", "SQL statements executed")
	mStmtErrors   = obs.NewCounter("engine.stmt_errors", "SQL statements that returned an error")
	mRowsReturned = obs.NewCounter("engine.rows_returned", "Result rows returned by queries")
	mRowsAffected = obs.NewCounter("engine.rows_affected", "Rows written by DML statements")
	mRowsScanned  = obs.NewCounter("engine.rows_scanned", "Tuple versions examined by table scans")
	mTxnCommits   = obs.NewCounter("engine.txn_commits", "Transactions committed")
	mTxnRollbacks = obs.NewCounter("engine.txn_rollbacks", "Transactions rolled back")

	// Concurrency health: how many transactions are open, how long statements
	// wait for their table locks, and how far (in logical ticks) transaction
	// snapshots trail the current clock when statements run against them.
	gTxnsActive  = obs.NewGauge("engine.txns_active", "Transactions currently open")
	hLockWait    = obs.NewHistogram("engine.lock_wait_ns", "Time statements spend acquiring their table locks")
	hSnapshotAge = obs.NewHistogram("engine.snapshot_age_ticks", "Logical-clock age of transaction snapshots at statement start")

	hParse   = obs.NewHistogram("engine.parse_ns", "SQL parse latency")
	hLineage = obs.NewHistogram(obs.MetricLineageNS, "Time per statement at the result boundary of lineage capture: vids to TupleRefs, and the version-set build")

	// Durability: WAL traffic (records, bytes, group-commit flushes and
	// their latency) and what the last recovery replayed.
	mWALAppends     = obs.NewCounter("wal.appends", "Records appended to the write-ahead log")
	mWALBytes       = obs.NewCounter("wal.bytes", "Bytes appended to the write-ahead log")
	mWALFlushes     = obs.NewCounter("wal.flushes", "Group-commit flushes of the write-ahead log")
	mWALTruncations = obs.NewCounter("wal.truncations", "WAL truncations after checkpoints")
	hWALFlush       = obs.NewHistogram("wal.flush_ns", "WAL group-commit flush latency")
	mRecoveredTxns  = obs.NewCounter("recovery.replayed_txns", "Transactions replayed by crash recovery")
	hRecoveryNS     = obs.NewHistogram("recovery.ns", "Crash recovery duration")

	// Server start and stop: what the sync rule (DESIGN.md "Value layout and
	// table storage") saved. A table is skipped or kept when it still equals
	// the file in the directory.
	mCkptWritten = obs.NewCounter("engine.checkpoint.tables_written", "Table files a checkpoint encoded and wrote")
	mCkptSkipped = obs.NewCounter("engine.checkpoint.tables_skipped", "Tables a checkpoint did not write: the file already equals them")
	mCkptBytes   = obs.NewCounter("engine.checkpoint.bytes_written", "Bytes of table files written by checkpoints")
	mLoadDecoded = obs.NewCounter("engine.load.tables_decoded", "Table files a data-directory load decoded")
	mLoadKept    = obs.NewCounter("engine.load.tables_kept", "Table files a data-directory load read and verified but did not decode: the table in memory already equals them")

	// Per-kind statement latency. Unknown statement types fall back to
	// hExecOther. The family prefix carries the shared description (see init).
	hExecSelect = obs.GetHistogram("engine.exec_ns.select")
	hExecInsert = obs.GetHistogram("engine.exec_ns.insert")
	hExecUpdate = obs.GetHistogram("engine.exec_ns.update")
	hExecDelete = obs.GetHistogram("engine.exec_ns.delete")
	hExecDDL    = obs.GetHistogram("engine.exec_ns.ddl")
	hExecTxn    = obs.GetHistogram("engine.exec_ns.txn")
	hExecOther  = obs.GetHistogram("engine.exec_ns.other")

	// Time travel: historical (AS OF) reads, vacuum passes, and reenactment.
	mAsOfQueries  = obs.NewCounter("asof.queries", "Statements executed against a historical (AS OF) snapshot")
	mAsOfRejected = obs.NewCounter("asof.rejected_below_horizon", "AS OF requests rejected because the tick predates the vacuum horizon")
	mVacuumPasses = obs.NewCounter("vacuum.passes", "Vacuum passes completed")
	mVacuumPruned = obs.NewCounter("vacuum.versions_pruned", "Dead tuple versions reclaimed by vacuum")
	mVacuumDefers = obs.NewCounter("vacuum.deferred", "Vacuum passes deferred by an in-flight snapshot capture")
	gVacuumTicks  = obs.NewGauge("vacuum.horizon_ticks", "Current retention horizon on the logical timeline")
	hVacuumNS     = obs.NewHistogram("vacuum.pass_ns", "Vacuum pass duration")
	mReenacts     = obs.NewCounter("reenact.replays", "Transactions replayed by REENACT TRANSACTION")
)

func init() {
	obs.DescribePrefix("engine.exec_ns.", "Statement latency by statement kind")
}

// execHistogram picks the latency histogram for a parsed statement.
func execHistogram(stmt sqlparse.Statement) *obs.Histogram {
	switch s := stmt.(type) {
	case *sqlparse.Select:
		return hExecSelect
	case *sqlparse.Insert:
		return hExecInsert
	case *sqlparse.Update:
		return hExecUpdate
	case *sqlparse.Delete:
		return hExecDelete
	case *sqlparse.CreateTable, *sqlparse.DropTable,
		*sqlparse.CreateIndex, *sqlparse.DropIndex:
		return hExecDDL
	case *sqlparse.Begin, *sqlparse.Commit, *sqlparse.Rollback:
		return hExecTxn
	case *sqlparse.Explain:
		return execHistogram(s.Stmt)
	default:
		return hExecOther
	}
}
