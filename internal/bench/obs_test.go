package bench

import (
	"testing"

	"ldv/internal/obs"
	"ldv/internal/tpch"
)

func smallConfig() Config {
	return Config{SF: 0.002, Seed: 1, Inserts: 20, Selects: 2, Updates: 5}
}

// TestAuditProducesMetrics is the end-to-end observability check: one traced
// TPC-H run must leave non-zero engine, wire, auditor, and span metrics in
// the default registry.
func TestAuditProducesMetrics(t *testing.T) {
	cfg := smallConfig()
	q, err := tpch.QueryByID(cfg.TPCH(), "Q1-1")
	if err != nil {
		t.Fatal(err)
	}
	obs.Reset()
	if _, err := RunAudit(cfg, q, SysSI); err != nil {
		t.Fatal(err)
	}
	snap := obs.TakeSnapshot()

	for _, name := range []string{
		"engine.stmts", "engine.rows_returned", "engine.rows_scanned",
		"wire.in.bytes", "wire.out.bytes", "wire.in.msgs.Query",
		"auditor.syscalls.open", "auditor.syscalls.spawn",
		"auditor.tuples.fetched", "auditor.tuples.stored",
		"auditor.log_entries",
		"server.sessions", "server.stmts",
		"pack.files_added", "pack.compress.in_bytes",
	} {
		if snap.Counter(name) == 0 {
			t.Errorf("counter %s is zero after a traced run", name)
		}
	}
	for _, name := range []string{
		"engine.parse_ns", "engine.exec_ns.select", obs.MetricLineageNS,
		obs.MetricTraceNS, obs.MetricDedupNS, obs.MetricSpoolNS,
		"span.bench.audit", "span.bench.package", "span.audit.run",
	} {
		if snap.Histogram(name).Count == 0 {
			t.Errorf("histogram %s is empty after a traced run", name)
		}
	}
	if len(obs.Traces()) == 0 {
		t.Error("no traces recorded")
	}
}

// TestReplayProducesSpans checks that a packaged run's re-execution records
// the replay-side spans and timings.
func TestReplayProducesSpans(t *testing.T) {
	cfg := smallConfig()
	q, err := tpch.QueryByID(cfg.TPCH(), "Q1-1")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunAudit(cfg, q, SysSE)
	if err != nil {
		t.Fatal(err)
	}
	obs.Reset()
	if _, err := RunReplay(cfg, q, SysSE, out); err != nil {
		t.Fatal(err)
	}
	snap := obs.TakeSnapshot()
	// (RunReplay spawns apps itself rather than via ReplaySetup.Run, so the
	// replay.run span belongs to the ldv-exec path, not the harness path.)
	for _, name := range []string{"span.bench.replay", "span.replay.prepare"} {
		if snap.Histogram(name).Count == 0 {
			t.Errorf("histogram %s is empty after replay", name)
		}
	}
}
