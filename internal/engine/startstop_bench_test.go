package engine_test

import (
	"testing"

	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/tpch"
)

// What a server start and a server stop cost on the dataset the repository
// benchmark's LDV applications run on (TPC-H at SF 0.005, eight tables,
// 5.2 MB of table files), with and without the sync rule having anything to
// skip. They live in the external test package because internal/tpch imports
// the engine. Cold is the first start of a process (every file decoded) and
// the stop after every table changed; Warm and Clean are a start and a stop
// around a run that wrote nothing (`ldv_wide`), OneDirty the stop after one
// that wrote `orders` (`ldv_app`), Stamped the stop after a lineage scan of
// `lineitem` (a server-included audit of `ldv_app`'s select, which changes
// only prov_usedby).

func startStopDB(b *testing.B) (*engine.DB, *osim.FS) {
	b.Helper()
	db := engine.NewDB(nil)
	if _, err := tpch.Load(db, tpch.Config{SF: 0.005, Seed: 42}); err != nil {
		b.Fatal(err)
	}
	fs := osim.NewFS()
	if err := db.Checkpoint(fs, "/data"); err != nil {
		b.Fatal(err)
	}
	return db, fs
}

func BenchmarkCheckpointClean(b *testing.B) {
	db, fs := startStopDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Checkpoint(fs, "/data"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointOneDirty(b *testing.B) {
	db, fs := startStopDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := db.Exec("UPDATE orders SET o_comment = 'x' WHERE o_orderkey = 1", engine.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := db.Checkpoint(fs, "/data"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckpointStamped(b *testing.B) {
	db, fs := startStopDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := db.Exec("SELECT count(*) FROM lineitem", engine.ExecOptions{WithLineage: true}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := db.Checkpoint(fs, "/data"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadDirWarm(b *testing.B) {
	db, fs := startStopDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.LoadDir(fs, "/data"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadDirCold(b *testing.B) {
	_, fs := startStopDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.NewDB(nil).LoadDir(fs, "/data"); err != nil {
			b.Fatal(err)
		}
	}
}
