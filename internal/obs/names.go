package obs

// Metric names the audit instrumentation records and the benchmark's §IX-B
// breakdown reads. Keeping them as constants ties the engine and auditor hot
// paths to their readers without an import cycle (obs stays stdlib-only).
const (
	// MetricLineageNS is engine time spent computing per-statement lineage
	// and copying provenance tuple values (the query-rewrite cost §IX-B
	// charges to provenance computation).
	MetricLineageNS = "engine.lineage_ns"
	// MetricTraceNS is auditor time spent building trace nodes/edges from
	// statements and syscalls.
	MetricTraceNS = "auditor.trace_ns"
	// MetricDedupNS is auditor time spent in the duplicate-suppression
	// hash table of §VII-D.
	MetricDedupNS = "auditor.dedup_ns"
	// MetricSpoolNS is auditor time spent appending newly relevant tuples
	// and interaction-log entries to storage.
	MetricSpoolNS = "auditor.spool_ns"
)
