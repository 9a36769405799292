package engine

import (
	"ldv/internal/obs"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Virtual tables are read-only system views served from live engine state
// rather than stored tuples. A SELECT whose FROM names an unknown table
// falls back to this registry, so the views are reachable over the plain
// wire protocol with no new message kinds: `SELECT * FROM
// ldv_stat_statements` behaves like any other query — filters, joins,
// aggregates and ORDER BY all apply.
//
// Providers materialize a fresh snapshot per scan and MUST NOT take table
// or catalog locks: the scanning statement may already hold part of its
// footprint, and a provider blocking on a table lock could deadlock against
// a writer acquiring its footprint in sorted order. The per-table stats the
// views report are therefore plain atomics maintained at the mutation sites
// (see Table's counter fields).

// VirtualTable is one registered system view.
type VirtualTable struct {
	Name   string
	Schema Schema
	// Rows materializes the view's current contents. Called once per scan,
	// with no engine locks held.
	Rows func() [][]sqlval.Value
}

// RegisterVirtualTable installs (or replaces) a system view. The server and
// replication layers use it to swap the placeholder activity and
// replication views for live providers.
func (db *DB) RegisterVirtualTable(vt *VirtualTable) {
	db.vtMu.Lock()
	db.virtual[vt.Name] = vt
	db.vtMu.Unlock()
}

// virtualTable resolves a system-view name, returning nil when it is not
// registered.
func (db *DB) virtualTable(name string) *VirtualTable {
	db.vtMu.RLock()
	vt := db.virtual[name]
	db.vtMu.RUnlock()
	return vt
}

// storedRows materializes the view's current contents in the shape the
// scan leaf walks, so filters, pruning and LIMIT apply to a system view
// exactly as to a table. The hidden attributes are synthetic: row ids
// number the snapshot's rows, versions and usedby are zero — which also
// makes every row visible to every snapshot.
func (vt *VirtualTable) storedRows() []*storedRow {
	rows := vt.Rows()
	out := make([]*storedRow, len(rows))
	for i, vals := range rows {
		out[i] = &storedRow{id: RowID(i + 1), vals: vals}
	}
	return out
}

// cols builds a schema from (name, kind) pairs.
func viewSchema(cols ...Column) Schema { return Schema{Columns: cols} }

func intCol(name string) Column   { return Column{Name: name, Type: sqlval.KindInt} }
func textCol(name string) Column  { return Column{Name: name, Type: sqlval.KindString} }
func floatCol(name string) Column { return Column{Name: name, Type: sqlval.KindFloat} }
func boolCol(name string) Column  { return Column{Name: name, Type: sqlval.KindBool} }

// registerBuiltinVirtualTables installs the ldv_stat_* views every database
// serves. ldv_stat_activity and ldv_stat_replication start as empty shells;
// the server and replication layers replace them with live providers.
func (db *DB) registerBuiltinVirtualTables() {
	db.RegisterVirtualTable(&VirtualTable{
		Name: "ldv_stat_statements",
		Schema: viewSchema(
			textCol("fingerprint"), textCol("query"),
			intCol("calls"), intCol("errors"), intCol("rows"),
			intCol("parse_ns"), intCol("plan_ns"), intCol("exec_ns"),
			floatCol("mean_exec_ns"),
			intCol("p50_exec_ns"), intCol("p95_exec_ns"), intCol("p99_exec_ns"),
			textCol("last_trace"),
		),
		Rows: func() [][]sqlval.Value {
			stats := obs.Statements().Snapshot()
			rows := make([][]sqlval.Value, 0, len(stats))
			for _, s := range stats {
				fp := sqlparse.Fingerprint{Hash: s.Hash, Text: s.Text}
				rows = append(rows, []sqlval.Value{
					sqlval.NewString(fp.String()),
					sqlval.NewString(s.Text),
					sqlval.NewInt(s.Calls),
					sqlval.NewInt(s.Errors),
					sqlval.NewInt(s.Rows),
					sqlval.NewInt(s.Parse.Sum),
					sqlval.NewInt(s.Plan.Sum),
					sqlval.NewInt(s.Exec.Sum),
					sqlval.NewFloat(s.Exec.Mean()),
					sqlval.NewInt(s.Exec.Quantile(0.50)),
					sqlval.NewInt(s.Exec.Quantile(0.95)),
					sqlval.NewInt(s.Exec.Quantile(0.99)),
					sqlval.NewString(s.LastTraceID),
				})
			}
			return rows
		},
	})

	db.RegisterVirtualTable(&VirtualTable{
		Name: "ldv_stat_tables",
		Schema: viewSchema(
			textCol("name"), intCol("live_rows"), intCol("versions"),
			intCol("dead_versions"),
			intCol("lock_waits"), intCol("lock_wait_ns"), boolCol("synced"),
		),
		Rows: func() [][]sqlval.Value {
			tables := db.tableList()
			rows := make([][]sqlval.Value, 0, len(tables))
			for _, t := range tables {
				rows = append(rows, []sqlval.Value{
					sqlval.NewString(t.Name),
					sqlval.NewInt(t.liveRows.Load()),
					sqlval.NewInt(t.versions.Load()),
					sqlval.NewInt(t.deadVersions.Load()),
					sqlval.NewInt(t.lockWaits.Load()),
					sqlval.NewInt(t.lockWaitNS.Load()),
					sqlval.NewBool(t.current() != nil), // the next checkpoint to its directory skips it
				})
			}
			return rows
		},
	})

	// Time travel: per-table version demographics plus the reenactment
	// history, and the cumulative vacuum counters.
	db.RegisterVirtualTable(&VirtualTable{
		Name: "ldv_stat_versions",
		Schema: viewSchema(
			intCol("txn"), intCol("snapshot_tick"), intCol("commit_tick"),
			intCol("commit_seq"), intCol("statements"), intCol("rows"),
		),
		Rows: func() [][]sqlval.Value {
			recs := db.txnHistSnapshot()
			rows := make([][]sqlval.Value, 0, len(recs))
			for _, r := range recs {
				total := 0
				for _, h := range r.Stmts {
					total += h.Rows
				}
				rows = append(rows, []sqlval.Value{
					sqlval.NewInt(r.TxnID),
					sqlval.NewInt(int64(r.SnapTS)),
					sqlval.NewInt(int64(r.CommitTS)),
					sqlval.NewInt(int64(r.CommitSeq)),
					sqlval.NewInt(int64(len(r.Stmts))),
					sqlval.NewInt(int64(total)),
				})
			}
			return rows
		},
	})
	db.RegisterVirtualTable(&VirtualTable{
		Name: "ldv_stat_vacuum",
		Schema: viewSchema(
			intCol("horizon_tick"), intCol("retain_ticks"), intCol("passes"),
			intCol("pruned"), intCol("deferred"), intCol("last_pass_ns"),
		),
		Rows: func() [][]sqlval.Value {
			vs := db.VacuumStatsSnapshot()
			return [][]sqlval.Value{{
				sqlval.NewInt(int64(vs.Horizon)),
				sqlval.NewInt(int64(vs.RetainTicks)),
				sqlval.NewInt(vs.Passes),
				sqlval.NewInt(vs.Pruned),
				sqlval.NewInt(vs.Deferred),
				sqlval.NewInt(vs.LastPassNS),
			}}
		},
	})

	db.RegisterVirtualTable(&VirtualTable{
		Name: "ldv_stat_indexes",
		Schema: viewSchema(
			textCol("name"), textCol("table_name"), textCol("column_name"),
			textCol("kind"), intCol("entries"), intCol("scans"),
		),
		Rows: func() [][]sqlval.Value {
			tables := db.tableList()
			var rows [][]sqlval.Value
			for _, t := range tables {
				for _, ix := range t.indexList() {
					rows = append(rows, []sqlval.Value{
						sqlval.NewString(ix.name),
						sqlval.NewString(t.Name),
						sqlval.NewString(ix.column),
						sqlval.NewString(ix.kind),
						sqlval.NewInt(ix.entries.Load()),
						sqlval.NewInt(ix.scans.Load()),
					})
				}
			}
			return rows
		},
	})

	db.RegisterVirtualTable(&VirtualTable{
		Name:   "ldv_stat_wal",
		Schema: viewSchema(intCol("seq"), intCol("size_bytes")),
		Rows: func() [][]sqlval.Value {
			w := db.WAL()
			if w == nil {
				return nil
			}
			return [][]sqlval.Value{{
				sqlval.NewInt(int64(w.Seq())),
				sqlval.NewInt(w.Size()),
			}}
		},
	})

	db.RegisterVirtualTable(&VirtualTable{
		Name: "ldv_stat_wait_events",
		Schema: viewSchema(
			textCol("event"), textCol("description"),
			intCol("waits"), intCol("wait_ns"), floatCol("mean_wait_ns"),
		),
		Rows: func() [][]sqlval.Value {
			stats := obs.WaitEventStats()
			rows := make([][]sqlval.Value, 0, len(stats))
			for _, s := range stats {
				mean := 0.0
				if s.Count > 0 {
					mean = float64(s.TotalNS) / float64(s.Count)
				}
				rows = append(rows, []sqlval.Value{
					sqlval.NewString(s.Name),
					sqlval.NewString(s.Description),
					sqlval.NewInt(s.Count),
					sqlval.NewInt(s.TotalNS),
					sqlval.NewFloat(mean),
				})
			}
			return rows
		},
	})

	db.RegisterVirtualTable(&VirtualTable{
		Name: "ldv_stat_ash",
		Schema: viewSchema(
			intCol("sample_ns"), intCol("session"), textCol("proc"),
			intCol("txn"), textCol("state"), textCol("event"),
			textCol("fingerprint"), textCol("trace_id"), intCol("wait_ns"),
		),
		Rows: func() [][]sqlval.Value {
			samples := obs.ASH().Samples()
			rows := make([][]sqlval.Value, 0, len(samples))
			for _, s := range samples {
				rows = append(rows, []sqlval.Value{
					sqlval.NewInt(s.TimeNS),
					sqlval.NewInt(s.Session),
					sqlval.NewString(s.Proc),
					sqlval.NewInt(s.Txn),
					sqlval.NewString(s.State),
					sqlval.NewString(s.Event),
					sqlval.NewString(s.Fingerprint),
					sqlval.NewString(s.TraceID),
					sqlval.NewInt(s.WaitNS),
				})
			}
			return rows
		},
	})

	// Placeholders: populated by the layers that own the state. The schema
	// is fixed here so queries against an unserved view still resolve.
	db.RegisterVirtualTable(&VirtualTable{
		Name: "ldv_stat_activity",
		Schema: viewSchema(
			intCol("session"), textCol("proc"), textCol("state"),
			textCol("fingerprint"), textCol("query"), intCol("elapsed_ns"),
		),
		Rows: func() [][]sqlval.Value { return nil },
	})
	db.RegisterVirtualTable(&VirtualTable{
		Name: "ldv_stat_replication",
		Schema: viewSchema(
			textCol("role"), textCol("peer"), textCol("state"),
			intCol("applied_seq"), intCol("head_seq"), intCol("lag_records"),
		),
		Rows: func() [][]sqlval.Value { return nil },
	})
	db.RegisterVirtualTable(&VirtualTable{
		Name: "ldv_stat_prepared",
		Schema: viewSchema(
			intCol("session"), textCol("name"), textCol("fingerprint"),
			intCol("num_params"), intCol("calls"), intCol("cache_hits"),
		),
		Rows: func() [][]sqlval.Value { return nil },
	})
}
