// Benchmarks regenerating the paper's evaluation (§IX), one per table and
// figure. Absolute numbers depend on the host; the shapes — who wins, by
// roughly what factor, where crossovers fall — are the reproduction target
// (see EXPERIMENTS.md). Run with:
//
//	go test -bench=. -benchmem
//
// Larger, paper-proportioned runs: `go run ./cmd/ldv-bench -sf 0.02`.
package ldv_test

import (
	"io"
	"testing"

	"ldv/internal/baseline/vmi"
	"ldv/internal/bench"
	"ldv/internal/deps"
	"ldv/internal/engine"
	"ldv/internal/ldv"
	"ldv/internal/tpch"
)

// benchConfig is the benchmark scale: small enough for -bench=. to finish
// in minutes, large enough that data (not constant overheads) dominates.
func benchConfig() bench.Config {
	return bench.Config{SF: 0.001, Seed: 42, Inserts: 50, Selects: 4, Updates: 10}
}

func benchQuery(b *testing.B, id string) tpch.Query {
	b.Helper()
	q, err := tpch.QueryByID(benchConfig().TPCH(), id)
	if err != nil {
		b.Fatal(err)
	}
	return q
}

// ---- Figure 7a: audit time (whole workload, per system) ----

func benchmarkAudit(b *testing.B, sys bench.System) {
	cfg := benchConfig()
	q := benchQuery(b, "Q1-1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := bench.RunAudit(cfg, q, sys)
		if err != nil {
			b.Fatal(err)
		}
		if sys != bench.SysPlain && sys != bench.SysVM && out.Package == nil {
			b.Fatal("no package")
		}
	}
}

func BenchmarkFig7aAuditPlain(b *testing.B)          { benchmarkAudit(b, bench.SysPlain) }
func BenchmarkFig7aAuditPTU(b *testing.B)            { benchmarkAudit(b, bench.SysPTU) }
func BenchmarkFig7aAuditServerIncluded(b *testing.B) { benchmarkAudit(b, bench.SysSI) }
func BenchmarkFig7aAuditServerExcluded(b *testing.B) { benchmarkAudit(b, bench.SysSE) }

// ---- Figure 7b: replay time (whole workload, per system) ----

func benchmarkReplay(b *testing.B, sys bench.System) {
	cfg := benchConfig()
	q := benchQuery(b, "Q1-1")
	out, err := bench.RunAudit(cfg, q, sys)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunReplay(cfg, q, sys, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7bReplayPTU(b *testing.B)            { benchmarkReplay(b, bench.SysPTU) }
func BenchmarkFig7bReplayServerIncluded(b *testing.B) { benchmarkReplay(b, bench.SysSI) }
func BenchmarkFig7bReplayServerExcluded(b *testing.B) { benchmarkReplay(b, bench.SysSE) }
func BenchmarkFig7bReplayVM(b *testing.B)             { benchmarkReplay(b, bench.SysVM) }

// ---- Figure 8a: audit time per query family (select step only) ----

func benchmarkFig8a(b *testing.B, queryID string, sys bench.System) {
	cfg := benchConfig()
	cfg.Inserts, cfg.Updates = 0, 0
	q := benchQuery(b, queryID)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAudit(cfg, q, sys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8aQ1ServerIncluded(b *testing.B) { benchmarkFig8a(b, "Q1-2", bench.SysSI) }
func BenchmarkFig8aQ2ServerIncluded(b *testing.B) { benchmarkFig8a(b, "Q2-2", bench.SysSI) }
func BenchmarkFig8aQ3ServerIncluded(b *testing.B) { benchmarkFig8a(b, "Q3-2", bench.SysSI) }
func BenchmarkFig8aQ4ServerIncluded(b *testing.B) { benchmarkFig8a(b, "Q4-2", bench.SysSI) }
func BenchmarkFig8aQ1ServerExcluded(b *testing.B) { benchmarkFig8a(b, "Q1-2", bench.SysSE) }
func BenchmarkFig8aQ1PTU(b *testing.B)            { benchmarkFig8a(b, "Q1-2", bench.SysPTU) }

// ---- Figure 8b: replay time per query family ----

func benchmarkFig8b(b *testing.B, queryID string, sys bench.System) {
	cfg := benchConfig()
	cfg.Inserts, cfg.Updates = 0, 0
	q := benchQuery(b, queryID)
	out, err := bench.RunAudit(cfg, q, sys)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunReplay(cfg, q, sys, out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8bQ1ServerIncluded(b *testing.B) { benchmarkFig8b(b, "Q1-2", bench.SysSI) }
func BenchmarkFig8bQ1ServerExcluded(b *testing.B) { benchmarkFig8b(b, "Q1-2", bench.SysSE) }
func BenchmarkFig8bQ3ServerExcluded(b *testing.B) { benchmarkFig8b(b, "Q3-2", bench.SysSE) }
func BenchmarkFig8bQ1VM(b *testing.B)             { benchmarkFig8b(b, "Q1-2", bench.SysVM) }

// ---- Figure 9: package construction, reporting sizes ----

func benchmarkFig9(b *testing.B, sys bench.System) {
	cfg := benchConfig()
	q := benchQuery(b, "Q1-2")
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := bench.RunAudit(cfg, q, sys)
		if err != nil {
			b.Fatal(err)
		}
		size = out.Package.TotalSize()
	}
	b.ReportMetric(float64(size)/(1<<20), "MB/package")
}

func BenchmarkFig9PackagePTU(b *testing.B)            { benchmarkFig9(b, bench.SysPTU) }
func BenchmarkFig9PackageServerIncluded(b *testing.B) { benchmarkFig9(b, bench.SysSI) }
func BenchmarkFig9PackageServerExcluded(b *testing.B) { benchmarkFig9(b, bench.SysSE) }

// ---- Table II: query execution against the generated data ----

func BenchmarkTable2Queries(b *testing.B) {
	cfg := benchConfig()
	db := engine.NewDB(nil)
	if _, err := tpch.Load(db, cfg.TPCH()); err != nil {
		b.Fatal(err)
	}
	queries := tpch.Queries(cfg.TPCH())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		if _, err := db.Exec(q.SQL, engine.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Table III: package content inspection ----

func BenchmarkTable3(b *testing.B) {
	cfg := benchConfig()
	cfg.Inserts, cfg.Selects, cfg.Updates = 10, 2, 3
	for i := 0; i < b.N; i++ {
		if err := bench.Table3(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- §IX-F: VM image ----

func BenchmarkVMIBoot(b *testing.B) {
	m, err := ldv.NewMachine()
	if err != nil {
		b.Fatal(err)
	}
	if _, err := tpch.Load(m.DB, benchConfig().TPCH()); err != nil {
		b.Fatal(err)
	}
	if err := m.PersistData(); err != nil {
		b.Fatal(err)
	}
	img := vmi.BuildImage(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vmi.Boot(img)
	}
	b.ReportMetric(float64(img.TotalSize())/(1<<20), "MB/image")
}

// ---- Ablations (design choices from DESIGN.md) ----

// BenchmarkAblationTemporalPruning compares the cost of temporally
// restricted inference against naive reachability on an audited trace.
func BenchmarkAblationTemporalPruning(b *testing.B) {
	cfg := benchConfig()
	cfg.Inserts, cfg.Selects, cfg.Updates = 5, 2, 3
	q := benchQuery(b, "Q1-1")
	out, err := bench.RunAudit(cfg, q, bench.SysSI)
	if err != nil {
		b.Fatal(err)
	}
	_ = out
	m, err := bench.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	aud, err := ldv.Audit(m, out.Apps)
	if err != nil {
		b.Fatal(err)
	}
	tr := aud.Trace()
	b.Run("temporal", func(b *testing.B) {
		inf := deps.NewDefaultInferencer(tr)
		for i := 0; i < b.N; i++ {
			_ = inf.All()
		}
	})
	b.Run("naive", func(b *testing.B) {
		inf := deps.NewDefaultInferencer(tr)
		inf.Naive = true
		for i := 0; i < b.N; i++ {
			_ = inf.All()
		}
	})
}

// BenchmarkAblationDedup audits with the §VII-D duplicate-suppression table
// and reports the tuples it stored beside the count storage without it would
// hold: those plus the re-reads it suppressed.
func BenchmarkAblationDedup(b *testing.B) {
	cfg := benchConfig()
	q := benchQuery(b, "Q1-2")
	var relevant, duplicates int
	for i := 0; i < b.N; i++ {
		m, err := bench.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var st bench.StepTimes
		app := bench.WorkloadApp(cfg, q, &st)
		aud, err := ldv.Audit(m, []ldv.App{app})
		if err != nil {
			b.Fatal(err)
		}
		relevant, duplicates = aud.RelevantTupleCount(), aud.DuplicateTupleCount()
	}
	b.ReportMetric(float64(relevant), "tuples")
	b.ReportMetric(float64(relevant+duplicates), "tuples_nodedup")
}

// BenchmarkAblationTableGranularity reports the package-size impact of
// tuple slicing vs whole-table copying.
func BenchmarkAblationTableGranularity(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		if err := bench.AblationTableGranularity(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
