package ldv

import (
	"testing"

	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/pack"
	"ldv/internal/tpch"
)

// wideFixture is the select-only application of the repository benchmark's
// ldv_wide workload (benchmark/README.md) — the widest variant of each Table
// II family over TPC-H at SF 0.005: four statements, ~29 k tuple reads, a
// 31.6 k-node trace — and the data directory its machines boot from, as
// table-file images.
func wideFixture(tb testing.TB) (files map[string][]byte, apps []App) {
	tb.Helper()
	cfg := tpch.Config{SF: 0.005, Seed: 42}
	db := engine.NewDB(nil)
	if _, err := tpch.Load(db, cfg); err != nil {
		tb.Fatal(err)
	}
	fs := osim.NewFS()
	if err := db.Checkpoint(fs, DefaultDataDir); err != nil {
		tb.Fatal(err)
	}
	names, err := fs.ReadDir(DefaultDataDir)
	if err != nil {
		tb.Fatal(err)
	}
	files = map[string][]byte{}
	for _, n := range names {
		if files[n], err = fs.ReadFile(DefaultDataDir + "/" + n); err != nil {
			tb.Fatal(err)
		}
	}
	var sqls []string
	for _, id := range []string{"Q1-5", "Q2-1", "Q3-1", "Q4-5"} {
		q, err := tpch.QueryByID(cfg, id)
		if err != nil {
			tb.Fatal(err)
		}
		sqls = append(sqls, q.SQL)
	}
	apps = []App{{
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
	return files, apps
}

// bootWide is a machine whose database was loaded from the fixture's data
// directory, as the repository benchmark boots one.
func bootWide(tb testing.TB, files map[string][]byte) *Machine {
	tb.Helper()
	m, err := NewMachine()
	if err != nil {
		tb.Fatal(err)
	}
	fs := m.Kernel.FS()
	for name, data := range files {
		if err := fs.WriteFile(m.DataDir+"/"+name, data); err != nil {
			tb.Fatal(err)
		}
	}
	if err := m.DB.LoadDir(fs, m.DataDir); err != nil {
		tb.Fatal(err)
	}
	return m
}

// auditWide audits the wide application on a freshly booted machine.
func auditWide(tb testing.TB) (*Machine, *Auditor, []App) {
	tb.Helper()
	files, apps := wideFixture(tb)
	m := bootWide(tb, files)
	aud, err := Audit(m, apps)
	if err != nil {
		tb.Fatal(err)
	}
	return m, aud, apps
}

// BenchmarkAuditWide times what the repository benchmark reports as
// audit_si_ms on ldv_wide: a server-included audit of the wide application,
// from server start to server stop, on a machine booted from its data
// directory (the boot is not timed).
func BenchmarkAuditWide(b *testing.B) {
	files, apps := wideFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := bootWide(b, files)
		b.StartTimer()
		if _, err := Audit(m, apps); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkTraceMarshalWide times the trace's share of package_si_ms on
// ldv_wide: the audited wide trace marshalled and gzipped at traceGzipLevel,
// the bytes BuildServerIncluded stores as TracePath. It reports the encoded
// size as bytes/op and the stored size as gzip-B.
func BenchmarkTraceMarshalWide(b *testing.B) {
	_, aud, _ := auditWide(b)
	tr := aud.Trace()
	var zipped []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := tr.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		if zipped, err = gzipLevel(data, traceGzipLevel); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
	b.ReportMetric(float64(len(zipped)), "gzip-B")
}

// BenchmarkReplayWide times what the repository benchmark reports as
// replay_si_ms on ldv_wide: the server-included package unmarshalled,
// prepared and run — the server's start, the application, the server's stop.
func BenchmarkReplayWide(b *testing.B) {
	m, aud, apps := auditWide(b)
	arch, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		b.Fatal(err)
	}
	data := arch.Marshal()
	progs := appProgramsOf(apps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch, err := pack.Unmarshal(data)
		if err != nil {
			b.Fatal(err)
		}
		setup, err := PrepareReplay(arch, progs)
		if err != nil {
			b.Fatal(err)
		}
		err = setup.Run()
		ClearRuntime(setup.Machine.Kernel)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplaySEWide times what the repository benchmark reports as
// replay_se_ms on ldv_wide: the server-excluded package unmarshalled — its
// DB log decoded — prepared and run against the recorded responses.
func BenchmarkReplaySEWide(b *testing.B) {
	m, aud, apps := auditWide(b)
	arch, err := BuildServerExcluded(m, aud, apps)
	if err != nil {
		b.Fatal(err)
	}
	data := arch.Marshal()
	progs := appProgramsOf(apps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arch, err := pack.Unmarshal(data)
		if err != nil {
			b.Fatal(err)
		}
		setup, err := PrepareReplay(arch, progs)
		if err != nil {
			b.Fatal(err)
		}
		err = setup.Run()
		ClearRuntime(setup.Machine.Kernel)
		if err != nil {
			b.Fatal(err)
		}
	}
}
