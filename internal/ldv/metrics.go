package ldv

import (
	"ldv/internal/obs"
	"ldv/internal/osim"
)

// Audit-monitor accounting. The three latency histograms partition the
// auditor's cost into the paper's audit-overhead breakdown (§IX-B): trace
// construction (a statement's tuple nodes, and the fold at stop), duplicate
// suppression and spool writes — the benchmark's ldv.trace_build_ms /
// ldv.dedup_ms / ldv.spool_ms.
var (
	mAudStmts      = obs.NewCounter("auditor.stmts", "Statements observed by the audit monitor")
	mAudLogEntries = obs.NewCounter("auditor.log_entries", "DB-log entries written by the audit monitor")
	mTuplesFetched = obs.NewCounter("auditor.tuples.fetched", "Tuples fetched during audited statements")
	mTuplesStored  = obs.NewCounter("auditor.tuples.stored", "Tuples spooled to the provenance store")
	mTuplesDeduped = obs.NewCounter("auditor.tuples.deduped", "Tuples suppressed as already-spooled duplicates")

	hTraceNS = obs.NewHistogram(obs.MetricTraceNS, "Auditor time building trace nodes and edges")
	hDedupNS = obs.NewHistogram(obs.MetricDedupNS, "Auditor time in duplicate suppression")
	hSpoolNS = obs.NewHistogram(obs.MetricSpoolNS, "Auditor time spooling newly relevant tuples")

	// mAudEvents counts intercepted syscall events by kind, indexed by
	// osim.EventKind. The family is described by prefix below.
	mAudEvents = [...]*obs.Counter{
		osim.EvSpawn:   obs.GetCounter("auditor.syscalls.spawn"),
		osim.EvExit:    obs.GetCounter("auditor.syscalls.exit"),
		osim.EvOpen:    obs.GetCounter("auditor.syscalls.open"),
		osim.EvClose:   obs.GetCounter("auditor.syscalls.close"),
		osim.EvConnect: obs.GetCounter("auditor.syscalls.connect"),
	}
)

func init() {
	obs.DescribePrefix("auditor.syscalls.", "Intercepted syscall events by kind")
}

func countEvent(kind osim.EventKind) {
	if int(kind) >= 0 && int(kind) < len(mAudEvents) && mAudEvents[kind] != nil {
		mAudEvents[kind].Inc()
	}
}
