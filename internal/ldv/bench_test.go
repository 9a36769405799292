package ldv

import (
	"testing"

	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/tpch"
)

// auditWide audits the select-only application of the repository
// benchmark's ldv_wide workload (benchmark/README.md): the widest variant
// of each Table II family over TPC-H at SF 0.005 — four statements, ~29 k
// tuple reads, a 31.6 k-node trace.
func auditWide(tb testing.TB) (*Machine, *Auditor, []App) {
	tb.Helper()
	cfg := tpch.Config{SF: 0.005, Seed: 42}
	m, err := NewMachine()
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := tpch.Load(m.DB, cfg); err != nil {
		tb.Fatal(err)
	}
	var sqls []string
	for _, id := range []string{"Q1-5", "Q2-1", "Q3-1", "Q4-5"} {
		q, err := tpch.QueryByID(cfg, id)
		if err != nil {
			tb.Fatal(err)
		}
		sqls = append(sqls, q.SQL)
	}
	apps := []App{{
		Binary: "/usr/bin/wide-app",
		Libs:   ClientLibs(),
		Size:   180 << 10,
		Prog: func(p *osim.Process) error {
			conn, err := Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			for _, sql := range sqls {
				if _, err := conn.Query(sql); err != nil {
					return err
				}
			}
			return nil
		},
	}}
	aud, err := Audit(m, apps)
	if err != nil {
		tb.Fatal(err)
	}
	return m, aud, apps
}

// BenchmarkBuildServerIncluded times what the repository benchmark reports
// as package_si_ms: assembling the server-included package of one audit and
// serializing it.
func BenchmarkBuildServerIncluded(b *testing.B) {
	m, aud, apps := auditWide(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch, err := BuildServerIncluded(m, aud, apps)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(arch.Marshal())))
	}
}

// BenchmarkRestoreTuples times the restore half of a server-included
// replay's initialization (replay_si_ms): every provenance CSV of the
// package parsed and bulk-loaded into a fresh database.
func BenchmarkRestoreTuples(b *testing.B) {
	m, aud, apps := auditWide(b)
	arch, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		b.Fatal(err)
	}
	mdata, err := arch.Read(ManifestPath)
	if err != nil {
		b.Fatal(err)
	}
	manifest, err := UnmarshalManifest(mdata)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := engine.NewDB(nil)
		for _, td := range manifest.Tables {
			schema, err := td.Schema()
			if err != nil {
				b.Fatal(err)
			}
			if err := db.CreateTableFromSchema(td.Name, schema); err != nil {
				b.Fatal(err)
			}
		}
		if err := restoreTuples(arch, db, manifest); err != nil {
			b.Fatal(err)
		}
	}
}
