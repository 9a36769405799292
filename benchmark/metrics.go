package main

import (
	"encoding/json"
	"strings"
)

// metricDef is one catalogued metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change counts
// as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// runSeconds is how long one run's timed rounds last by default; it is the
// run_seconds of BENCHMARK.json.
const runSeconds = 28

// workloads are the four fixed workload names with the one-line reason each
// exists (README.md has the long form).
var workloads = []struct{ Name, Why string }{
	{"ldv_app", "paper Fig 7: 3-step insert/select/update app audited, packaged and replayed; DML-heavy, small lineage, so per-statement audit cost dominates"},
	{"ldv_wide", "paper Fig 8/9 worst cases: select-only app with wide lineage, so lineage capture, trace building, dedup, packaging and SI restore dominate"},
	{"wire_oltp", "1 closed-loop client, mixed point/range/prepared/pipelined reads beside writes on a churning WAL-backed table; statement and storage paths dominate, the executor idles"},
	{"sql_olap", "1 client, ten scan/join/aggregate queries plain and with PROVENANCE on static TPC-H; executor-dominated, parse/plan/wire negligible"},
}

// endToEnd is the fixed set of end-to-end metrics: the issue's sixteen less
// the two p99s, which could not hold a 25 % spread on the reference box and
// are demoted to per-layer metrics (demoted, below), as the issue provides.
// Every timing carries the contract's largest bound, 0.25: the box drifts by
// ±20 % for a minute at a time, and a run-to-run spread of 10–20 % is what ten
// runs of one commit show there (README.md, "Measured spread").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"plain_ms", "ms", "lower", 0.25},
	{"audit_si_ms", "ms", "lower", 0.25},
	{"audit_se_ms", "ms", "lower", 0.25},
	{"package_si_ms", "ms", "lower", 0.25},
	{"replay_si_ms", "ms", "lower", 0.25},
	{"replay_se_ms", "ms", "lower", 0.25},
	{"pkg_si_bytes", "bytes", "lower", 0.01},
	{"pkg_se_bytes", "bytes", "lower", 0.01},
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"pass_ms", "ms", "lower", 0.25},
	{"pass_prov_ms", "ms", "lower", 0.25},
}

// demoted are the end-to-end metrics reported without a bound: an untraced
// wire_oltp run prints them beside the gated ones, and the traced run reports
// them (from its one-client reference slice) among the per-layer metrics.
var demoted = []string{"read_p99_us", "write_p99_us"}

// oltpClasses are the wire_oltp op classes as the per-layer metrics name
// them (a pipe16 flush is reported per statement).
var oltpClasses = []string{"text_point", "prep_point", "pipe16_stmt", "range10", "adhoc", "asof_point", "update", "insert", "txn_transfer", "vacuum"}

// sessionClasses are the classes also timed on an in-process engine.Session.
var sessionClasses = []string{"text_point", "prep_point", "range10", "update", "insert", "asof_point"}

// olapQueries are the ten sql_olap queries in pass order.
var olapQueries = []string{"q1_3", "q2_2", "q3_1", "q4_3", "groupby", "topn", "limit", "like", "range", "insub"}

// wideQueries are the four ldv_wide queries in app order.
var wideQueries = []string{"q1_5", "q2_1", "q3_1", "q4_5"}

var appSteps = []string{"inserts", "first_select", "other_selects", "updates"}

var shareLayers = []string{"client", "server", "wire", "sqlparse", "plan", "engine", "unattributed"}

// perLayer is the fixed set of per-layer metrics, layer by layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	each := func(prefix string, keys []string) []string {
		names := make([]string, len(keys))
		for i, k := range keys {
			names[i] = prefix + k
		}
		return names
	}
	add("us", "lower", each("client.p50_us.", oltpClasses)...)
	add("us", "lower", "client.self_us", "server.raw_roundtrip_us", "server.self_us", "wire.encode_us", "wire.decode_us")
	add("bytes", "lower", "wire.bytes_per_op")
	add("count", "lower", "wire.msgs_per_op")
	add("us", "lower", "sqlparse.parse_us", "plan.plan_us")
	add("ratio", "higher", "plan.cache_hit_ratio", "plan.index_scan_ratio")
	add("us", "lower", each("engine.session_us.", sessionClasses)...)
	add("ratio", "lower", "engine.asof_premium_ratio")
	add("ms", "lower", each("engine.q_ms.", olapQueries)...)
	add("ms", "lower", each("engine.q_prov_ms.", olapQueries)...)
	add("ratio", "lower", "engine.lineage_premium_ratio", "engine.rows_scanned_per_row_returned")
	add("bytes", "lower", "engine.wal_bytes_per_txn")
	add("count", "lower", "engine.wal_flushes_per_txn")
	add("ratio", "lower", "engine.wal_bytes_per_user_byte")
	add("ms", "lower", "engine.vacuum_ms")
	add("1/s", "higher", "engine.vacuum_versions_per_s")
	add("count", "lower", "engine.dead_versions_at_vacuum")
	add("ms", "lower", "engine.checkpoint_ms")
	add("ratio", "lower", "engine.checkpoint_bytes_per_user_byte")
	add("ms", "lower", "engine.recover_ms")
	add("ratio", "lower", each("share.", shareLayers)...)
	add("ms", "lower", "osim.boot_ms")
	add("count", "lower", "osim.syscalls_intercepted")
	add("%", "lower", "ldv.audit_overhead_si_pct", "ldv.audit_overhead_se_pct")
	add("ms", "lower", each("ldv.plain_step_ms.", appSteps)...)
	add("ms", "lower", each("ldv.si_step_ms.", appSteps)...)
	add("ms", "lower", each("ldv.si_query_ms.", wideQueries)...)
	add("ms", "lower", "ldv.package_se_ms", "ldv.relevant_tuples_ms",
		"ldv.replay_si_prepare_ms", "ldv.replay_si_run_ms", "ldv.replay_se_prepare_ms", "ldv.replay_se_run_ms")
	add("count", "lower", "ldv.stmts", "ldv.tuples_fetched", "ldv.tuples_stored")
	add("ratio", "higher", "ldv.dedup_ratio")
	add("count", "lower", "ldv.relevant_tuples")
	add("ms", "lower", "ldv.lineage_ms", "ldv.trace_build_ms", "ldv.dedup_ms", "ldv.spool_ms")
	add("ratio", "lower", "ldv.audit_unattributed_share")
	add("count", "lower", "prov.nodes", "prov.edges")
	add("ms", "lower", "prov.marshal_ms")
	add("bytes", "lower", "prov.trace_bytes")
	add("ms", "lower", "deps.closure_ms")
	add("count", "lower", "deps.pairs")
	add("ms", "lower", "pack.marshal_ms", "pack.unmarshal_ms")
	add("bytes", "lower", "pack.si_tuple_bytes", "pack.si_server_bytes", "pack.si_trace_bytes", "pack.se_log_bytes", "pack.bytes_per_relevant_tuple")
	add("bytes", "lower", "proc.alloc_bytes_per_op")
	add("count", "lower", "proc.allocs_per_op")
	add("ms", "lower", "proc.gc_pause_ms")
	add("MB", "lower", "proc.heap_peak_mb")
	add("%", "lower", "obs.trace_overhead_pct")
	add("us", "lower", demoted...)
	return out
}

// manifest renders BENCHMARK.json from the catalog above, so the file and
// the program cannot drift apart (smoke_test.go compares them).
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}
