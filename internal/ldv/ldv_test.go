package ldv

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ldv/internal/deps"
	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/pack"
	"ldv/internal/prov"
	"ldv/internal/sqlval"
)

// aliceApps builds the paper's running example (§I/§II, Figure 1): process
// P1 reads a file and inserts a tuple; process P2 runs a query over the DB
// and writes the result to a file. One preloaded tuple (price 7) is never
// touched and must stay out of every package.
func aliceApps() []App {
	p1 := App{
		Binary: "/home/alice/bin/loader",
		Libs:   ClientLibs(),
		Size:   100 << 10,
		Prog: func(p *osim.Process) error {
			data, err := p.ReadFile("/home/alice/input.csv")
			if err != nil {
				return err
			}
			conn, err := Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			_, err = conn.Exec(fmt.Sprintf("INSERT INTO sales VALUES (100, %s)", strings.TrimSpace(string(data))))
			return err
		},
	}
	p2 := App{
		Binary: "/home/alice/bin/halofinder",
		Libs:   ClientLibs(),
		Size:   200 << 10,
		Prog: func(p *osim.Process) error {
			conn, err := Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			res, err := conn.Query("SELECT id, price FROM sales WHERE price > 10 ORDER BY id")
			if err != nil {
				return err
			}
			var sb strings.Builder
			for _, row := range res.Rows {
				fmt.Fprintf(&sb, "%s,%s\n", row[0], row[1])
			}
			return p.WriteFile("/home/alice/output.txt", []byte(sb.String()))
		},
	}
	return []App{p1, p2}
}

// newAliceMachine boots a machine with the preloaded sales table.
func newAliceMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DB.ExecScript(`
		CREATE TABLE sales (id INTEGER PRIMARY KEY, price FLOAT);
		INSERT INTO sales VALUES (1, 5), (2, 11), (3, 14), (4, 7);`, engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Kernel.FS().WriteFile("/home/alice/input.csv", []byte("20\n")); err != nil {
		t.Fatal(err)
	}
	return m
}

func auditAlice(t *testing.T) (*Machine, *Auditor, []App) {
	t.Helper()
	m := newAliceMachine(t)
	apps := aliceApps()
	aud, err := Audit(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	return m, aud, apps
}

func TestAuditBuildsCombinedTrace(t *testing.T) {
	m, aud, _ := auditAlice(t)
	tr := aud.Trace()

	// Expect statement nodes for the insert and the query.
	var inserts, queries, tuples, files, procs int
	for _, n := range tr.Nodes() {
		switch n.Type {
		case prov.TypeInsert:
			inserts++
		case prov.TypeQuery:
			queries++
		case prov.TypeTuple:
			tuples++
		case prov.TypeFile:
			files++
		case prov.TypeProcess:
			procs++
		}
	}
	if inserts != 1 || queries != 1 {
		t.Fatalf("statements: %d inserts, %d queries", inserts, queries)
	}
	// Tuples: 4 read by the query (11, 14, 20 qualify... plus the inserted
	// version) and 3 result tuples; at minimum > 3.
	if tuples < 4 {
		t.Fatalf("tuple nodes = %d", tuples)
	}
	if procs < 3 { // root + P1 + P2
		t.Fatalf("process nodes = %d", procs)
	}
	if files < 3 { // input.csv, output.txt, binaries/libs
		t.Fatalf("file nodes = %d", files)
	}
	// The input file and output file must be present with correct edges.
	in := tr.Node(FileNodeID("/home/alice/input.csv"))
	out := tr.Node(FileNodeID("/home/alice/output.txt"))
	if in == nil || out == nil {
		t.Fatal("input/output file nodes missing")
	}
	if len(tr.Out(in.ID)) == 0 {
		t.Fatal("input file has no readFrom edge")
	}
	if len(tr.In(out.ID)) == 0 {
		t.Fatal("output file has no hasWritten edge")
	}
	_ = m
}

func TestAuditRelevantTuples(t *testing.T) {
	_, aud, _ := auditAlice(t)
	rel := aud.RelevantTuples()
	rows := rel["sales"]
	// The query read prices 11, 14 (preloaded) and 20 (app-created). Only
	// the preloaded tuples are relevant; the app-created one is regenerated
	// on re-execution (§II: exclude t3). Tuples 5 and 7 were never needed.
	if len(rows) != 2 {
		t.Fatalf("relevant sales tuples = %d, want 2: %+v", len(rows), rows)
	}
	for _, r := range rows {
		price := r.Values[1].Float()
		if price != 11 && price != 14 {
			t.Errorf("unexpected relevant tuple with price %v", price)
		}
	}
}

func TestAuditDependencyInferenceOnRealTrace(t *testing.T) {
	_, aud, _ := auditAlice(t)
	tr := aud.Trace()
	// Find the output file and the input file; output must depend on input
	// through the DB (P1 insert -> tuple -> query -> result tuple -> P2).
	infOut := FileNodeID("/home/alice/output.txt")
	infIn := FileNodeID("/home/alice/input.csv")
	inf := deps.NewDefaultInferencer(tr)
	if !inf.DependsOn(infOut, infIn) {
		t.Fatal("output.txt must transitively depend on input.csv through the DB")
	}
}

func TestServerIncludedPackageContents(t *testing.T) {
	m, aud, apps := auditAlice(t)
	arch, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	mustHave := []string{
		ManifestPath, TracePath,
		"/db/provenance/sales.tbl",
		ServerBinaryPath, LibCPath, LibSSLPath,
		"/home/alice/bin/loader", "/home/alice/bin/halofinder",
		"/home/alice/input.csv",
	}
	for _, p := range mustHave {
		if !arch.Has(p) {
			t.Errorf("server-included package missing %s", p)
		}
	}
	// No raw data files, no outputs, no DB log.
	for _, p := range arch.Paths() {
		if strings.HasPrefix(p, m.DataDir) {
			t.Errorf("package leaked data file %s", p)
		}
	}
	if arch.Has("/home/alice/output.txt") {
		t.Error("package must not contain the application's output")
	}
	if arch.Has(DBLogPath) {
		t.Error("server-included package must not contain a DB log")
	}
	// Manifest sanity.
	mdata, _ := arch.Read(ManifestPath)
	manifest, err := UnmarshalManifest(mdata)
	if err != nil {
		t.Fatal(err)
	}
	if manifest.Type != TypeServerIncluded || len(manifest.Apps) != 2 || manifest.DataDir != ProvDataDir {
		t.Fatalf("manifest: %+v", manifest)
	}
	// The data directory holds one table file per table, and nothing else:
	// the schema rides in the file, not in the manifest.
	if got := arch.PathsUnder(ProvDataDir); len(got) != 1 || got[0] != "/db/provenance/sales.tbl" {
		t.Errorf("package data directory = %v", got)
	}
	if strings.Contains(string(mdata), "columns") || strings.Contains(string(mdata), "tables") {
		t.Errorf("manifest still describes schemas:\n%s", mdata)
	}
	// The PROV export is an opt-in extra.
	if arch.Has(ProvJSONPath) {
		t.Error("PROV export must not ship by default")
	}
	if err := AddPROVExport(arch, aud); err != nil {
		t.Fatal(err)
	}
	if !arch.Has(ProvJSONPath) {
		t.Error("AddPROVExport must add the export")
	}
}

func TestServerExcludedPackageContents(t *testing.T) {
	m, aud, apps := auditAlice(t)
	arch, err := BuildServerExcluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !arch.Has(DBLogPath) || !arch.Has(ManifestPath) {
		t.Fatal("server-excluded package missing metadata")
	}
	if arch.Has(ServerBinaryPath) {
		t.Error("server-excluded package must not contain the server binary")
	}
	if arch.Has(TracePath) {
		t.Error("server-excluded package does not preserve the trace (§VIII)")
	}
	for _, p := range arch.Paths() {
		if strings.HasPrefix(p, "/db/provenance") {
			t.Errorf("server-excluded package leaked provenance table file %s", p)
		}
	}
	// Server-excluded must be smaller than server-included here (tiny query
	// results vs an 8 MiB server binary).
	inc, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	if arch.TotalSize() >= inc.TotalSize() {
		t.Errorf("sizes: excluded %d >= included %d", arch.TotalSize(), inc.TotalSize())
	}
}

func appProgramsOf(apps []App) map[string]osim.Program {
	out := map[string]osim.Program{}
	for _, a := range apps {
		out[a.Binary] = a.Prog
	}
	return out
}

func originalOutput(t *testing.T, m *Machine) string {
	t.Helper()
	data, err := m.Kernel.FS().ReadFile("/home/alice/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestReplayServerIncluded(t *testing.T) {
	m, aud, apps := auditAlice(t)
	want := originalOutput(t, m)
	arch, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(arch, appProgramsOf(apps))
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.Kernel.FS().ReadFile("/home/alice/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("replayed output %q != original %q", got, want)
	}
	// The replayed DB must contain the restored subset plus the re-created
	// insert: 3 rows total (11, 14 restored; 20 re-inserted).
	refs, rows, err := replayed.DB.ScanAll("sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 {
		t.Fatalf("replayed sales rows = %d, want 3: %v", len(refs), rows)
	}
}

func TestReplayServerExcluded(t *testing.T) {
	m, aud, apps := auditAlice(t)
	want := originalOutput(t, m)
	arch, err := BuildServerExcluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(arch, appProgramsOf(apps))
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.Kernel.FS().ReadFile("/home/alice/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("replayed output %q != original %q", got, want)
	}
}

func TestReplayDivergenceDetected(t *testing.T) {
	m, aud, apps := auditAlice(t)
	arch, err := BuildServerExcluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	// Replace P2 with a divergent program: different SQL text.
	progs := appProgramsOf(apps)
	progs["/home/alice/bin/halofinder"] = func(p *osim.Process) error {
		conn, err := Dial(p)
		if err != nil {
			return err
		}
		defer conn.Close()
		_, err = conn.Query("SELECT count(*) FROM sales")
		return err
	}
	if _, err := Replay(arch, progs); err == nil {
		t.Fatal("divergent replay must fail")
	}
}

// TestReplayRefusesUnconsumedLog: a server-excluded replay must issue every
// recorded statement of every recorded session. An application that skips
// its query, or never connects, re-executes something other than what was
// recorded, though each statement it did issue matched.
func TestReplayRefusesUnconsumedLog(t *testing.T) {
	m, aud, apps := auditAlice(t)
	arch, err := BuildServerExcluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		prog osim.Program
		want string
	}{
		"skips its query": {func(p *osim.Process) error {
			conn, err := Dial(p)
			if err != nil {
				return err
			}
			return conn.Close()
		}, "session 2 ended after 0 of 1 recorded statements; next recorded \"SELECT id, price"},
		"never connects": {func(p *osim.Process) error { return nil }, "2 recorded sessions, the re-execution opened 1"},
	} {
		progs := appProgramsOf(apps)
		progs["/home/alice/bin/halofinder"] = c.prog
		if _, err := Replay(arch, progs); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("halofinder %s: replay err = %v, want one mentioning %q", name, err, c.want)
		}
	}
}

// TestReplayServesWhatTheServerSent: the DB log shares its values with the
// audited application's result, but not the result's list of rows, so an
// application that filters its result in place — keeping rows at the front
// of the same backing array — does not rewrite what the replay serves.
func TestReplayServesWhatTheServerSent(t *testing.T) {
	m := newAliceMachine(t)
	apps := []App{{
		Binary: "/home/alice/bin/filter",
		Libs:   ClientLibs(),
		Prog: func(p *osim.Process) error {
			conn, err := Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			res, err := conn.Query("SELECT id, price FROM sales ORDER BY id")
			if err != nil {
				return err
			}
			kept := res.Rows[:0]
			for _, row := range res.Rows {
				if row[1].Float() > 10 {
					kept = append(kept, row)
				}
			}
			return p.WriteFile("/home/alice/kept.txt", []byte(fmt.Sprint(kept)))
		},
	}}
	aud, err := Audit(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Kernel.FS().ReadFile("/home/alice/kept.txt")
	if err != nil || string(want) != "[[2 11] [3 14]]" {
		t.Fatalf("audited run wrote %q, %v", want, err)
	}
	arch, err := BuildServerExcluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(arch, appProgramsOf(apps))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := replayed.Kernel.FS().ReadFile("/home/alice/kept.txt"); string(got) != string(want) {
		t.Fatalf("server-excluded replay wrote %q, audited run %q", got, want)
	}
}

func TestReplayMissingProgram(t *testing.T) {
	m, aud, apps := auditAlice(t)
	arch, err := BuildServerExcluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareReplay(arch, nil); err == nil {
		t.Fatal("replay without program bodies must fail")
	}
	_ = m
}

func TestDBLogRoundTrip(t *testing.T) {
	_, aud, _ := auditAlice(t)
	sessions := aud.DBLog()
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	data := MarshalDBLog(sessions)
	back, err := UnmarshalDBLog(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := describeDBLog(back), describeDBLog(sessions); got != want {
		t.Fatalf("db log round trip:\n got %s\nwant %s", got, want)
	}
	// Entries re-materialize into results.
	res, err := back[1].Entries[0].Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("replayed rows = %d", len(res.Rows))
	}
}

func TestNodeIDHelpers(t *testing.T) {
	ref := engine.TupleRef{Table: "orders", Row: 42, Version: 7}
	id := TupleNodeID(ref)
	back, ok := TupleRefOfNode(id)
	if !ok || back != ref {
		t.Fatalf("tuple id round trip: %v %v", back, ok)
	}
	if _, ok := TupleRefOfNode("file:/x"); ok {
		t.Error("non-tuple id must not parse")
	}
	if _, ok := TupleRefOfNode("tuple:badformat"); ok {
		t.Error("malformed tuple id must not parse")
	}
	if FilePathOfNode(FileNodeID("/a/b")) != "/a/b" {
		t.Error("file id round trip failed")
	}
	if FilePathOfNode("proc:1") != "" {
		t.Error("non-file id must yield empty path")
	}
}

func TestRunPlainBaseline(t *testing.T) {
	m := newAliceMachine(t)
	if err := Run(m, aliceApps()); err != nil {
		t.Fatal(err)
	}
	out, err := m.Kernel.FS().ReadFile("/home/alice/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "2,11") {
		t.Fatalf("plain run output = %q", out)
	}
	// Plain runs do not compute provenance; the DB's tuples must show no
	// usedBy stamps from the app's SELECT... (the select ran without lineage)
	res, err := m.DB.Exec("SELECT count(*) FROM sales WHERE prov_usedby <> 0", engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 0 {
		t.Error("plain run must not stamp prov_usedby")
	}
}

// TestAuditedAppPreparesSeen: prepared and pipelined executions run the
// client's interceptor chain like text statements, so an application that
// prepares is audited — every execution is counted, logged with the values it
// bound, traced with lineage — and both package flavours replay it.
func TestAuditedAppPreparesSeen(t *testing.T) {
	var id any = 2 // what the app binds; a replay that binds something else diverges
	app := App{
		Binary: "/home/alice/bin/prep",
		Libs:   ClientLibs(),
		Size:   64 << 10,
		Prog: func(p *osim.Process) error {
			conn, err := Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			sel, err := conn.Prepare("SELECT price FROM sales WHERE id = ?")
			if err != nil {
				return err
			}
			upd, err := conn.Prepare("UPDATE sales SET price = price + ? WHERE id = ?")
			if err != nil {
				return err
			}
			first, err := sel.Exec(id)
			if err != nil {
				return err
			}
			pipe := conn.Pipeline()
			if err := pipe.Queue(upd, 0.5, id); err != nil {
				return err
			}
			if err := pipe.Queue(sel, id); err != nil {
				return err
			}
			burst, err := pipe.Flush()
			if err != nil {
				return err
			}
			return p.WriteFile("/home/alice/prep.txt", []byte(fmt.Sprintf("%v -> %v (%d updated)\n",
				first.Rows, burst[1].Rows, burst[0].RowsAffected)))
		},
	}
	apps := []App{app}
	progs := map[string]osim.Program{app.Binary: app.Prog}
	m := newAliceMachine(t)
	aud, err := Audit(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Kernel.FS().ReadFile("/home/alice/prep.txt")
	if err != nil || string(want) != "[[11]] -> [[11.5]] (1 updated)\n" {
		t.Fatalf("audited run wrote %q, %v", want, err)
	}
	if n := aud.StatementCount(); n != 3 {
		t.Fatalf("audit recorded %d statements, want 3", n)
	}
	var logged []string
	for _, e := range aud.DBLog()[0].Entries {
		logged = append(logged, describeStatement(e.SQL, e.Args))
	}
	if got, want := strings.Join(logged, "\n"), "SELECT price FROM sales WHERE id = ? -- 2\n"+
		"UPDATE sales SET price = price + ? WHERE id = ? -- 0.5, 2\n"+
		"SELECT price FROM sales WHERE id = ? -- 2"; got != want {
		t.Errorf("DB log:\n%s\nwant:\n%s", got, want)
	}
	// The interceptor's WithLineage rode the Execute frames: the one row the
	// statements read is relevant (in the version that predates the app's own
	// update), and each result depends on the version it was computed from.
	rel := aud.RelevantTuples()["sales"]
	if len(rel) != 1 || rel[0].Values[0].Int() != 2 || rel[0].Values[1].Float() != 11 {
		t.Errorf("relevant tuples = %+v, want the preloaded version of row 2", rel)
	}
	tr := aud.Trace()
	var labels []string
	for _, n := range tr.Nodes() {
		if n.Type == prov.TypeQuery || n.Type == prov.TypeUpdate {
			labels = append(labels, tr.Label(n.Ref))
		}
	}
	if fmt.Sprint(labels) != fmt.Sprint(logged) {
		t.Errorf("trace statement labels = %q, want %q", labels, logged)
	}
	if d := len(tr.Deps()); d != 3 { // two results on their row versions, the new version on the old
		t.Errorf("trace has %d dependencies, want 3", d)
	}

	included, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	excluded, err := BuildServerExcluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	for name, pkg := range map[string]*pack.Archive{"server-included": included, "server-excluded": excluded} {
		rep, err := Replay(pkg, progs)
		if err != nil {
			t.Fatalf("%s replay: %v", name, err)
		}
		if got, _ := rep.Kernel.FS().ReadFile("/home/alice/prep.txt"); string(got) != string(want) {
			t.Errorf("%s replay wrote %q, want %q", name, got, want)
		}
	}
	id = 3
	if _, err := Replay(excluded, progs); err == nil || !strings.Contains(err.Error(), "diverges from recorded") {
		t.Errorf("server-excluded replay binding another value: %v", err)
	}
	// FLOAT 2.0 selects the same row as INTEGER 2, but it is not the value
	// recorded: values match kind and all.
	id = 2.0
	if _, err := Replay(excluded, progs); err == nil || !strings.Contains(err.Error(), "diverges from recorded") ||
		!strings.Contains(err.Error(), "-- 2 (FLOAT)") || !strings.Contains(err.Error(), "-- 2 (INTEGER)") {
		t.Errorf("server-excluded replay binding FLOAT 2.0 for INTEGER 2: %v", err)
	}
}

func TestDialWithoutRuntimeFails(t *testing.T) {
	k := osim.NewKernel()
	p := k.Start("x")
	if _, err := Dial(p); err == nil {
		t.Fatal("Dial without runtime must fail")
	}
}

// TestCopyWorkloadRoundTrip covers the paper's assumption that applications
// use "standard bulk copy and DB dump utilities" (§II): a COPY FROM load
// followed by a query. The COPY source file is server I/O, so it ships in
// the server-included package, and both package flavours replay.
func TestCopyWorkloadRoundTrip(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DB.Exec("CREATE TABLE obs (id INTEGER PRIMARY KEY, v FLOAT)", engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Kernel.FS().WriteFile("/staging/obs.csv", []byte("1,5.5\n2,11.5\n3,14.25\n")); err != nil {
		t.Fatal(err)
	}
	app := App{
		Binary: "/bin/bulkloader",
		Libs:   ClientLibs(),
		Prog: func(p *osim.Process) error {
			conn, err := Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			if _, err := conn.Exec("COPY obs FROM '/staging/obs.csv'"); err != nil {
				return err
			}
			res, err := conn.Query("SELECT SUM(v) FROM obs WHERE v > 10")
			if err != nil {
				return err
			}
			return p.WriteFile("/sum.out", []byte(res.Rows[0][0].String()))
		},
	}
	apps := []App{app}
	aud, err := Audit(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Kernel.FS().ReadFile("/sum.out")
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != "25.75" {
		t.Fatalf("sum = %q", want)
	}

	// COPY-created tuples are app-created: not relevant even though the
	// query read them (they are regenerated by replaying the COPY).
	if n := aud.RelevantTupleCount(); n != 0 {
		t.Fatalf("relevant = %d, want 0 (all tuples are app-created)", n)
	}

	inc, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Has("/staging/obs.csv") {
		t.Fatal("COPY source file missing from server-included package")
	}
	progs := map[string]osim.Program{app.Binary: app.Prog}
	replayed, err := Replay(inc, progs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.Kernel.FS().ReadFile("/sum.out")
	if err != nil || string(got) != string(want) {
		t.Fatalf("included replay: %q %v", got, err)
	}

	exc, err := BuildServerExcluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err = Replay(exc, progs)
	if err != nil {
		t.Fatal(err)
	}
	got, err = replayed.Kernel.FS().ReadFile("/sum.out")
	if err != nil || string(got) != string(want) {
		t.Fatalf("excluded replay: %q %v", got, err)
	}
}

// TestReplayRestoresAwkwardText: TEXT values holding everything a text
// format has to quote — commas, quotes, line breaks, CR LF — beside NULL, the
// empty string and multi-byte runes survive the trip audit → packaged table
// file → the replayed server's start → replay, and the replay writes what the
// audited run wrote; so does the server-excluded replay, from the DB log.
// A damaged table file fails the replay at server start.
func TestReplayRestoresAwkwardText(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	notes := []sqlval.Value{
		sqlval.NewString("plain"),
		sqlval.NewString("a,b,,c"),
		sqlval.NewString(`she said "hi", twice: ""`),
		sqlval.NewString("line one\nline two\rstill two\n\nline four"),
		// A CR LF inside a field, which a CSV reader may hand back as LF.
		sqlval.NewString("a\r\nb,\"c\""),
		sqlval.NewString(""),
		sqlval.Null,
		sqlval.NewString("naïve 表 — \"quoted\",\n"),
		sqlval.NewString(" leading space, s:prefix n: i:42"),
	}
	if _, err := m.DB.Exec("CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT, tag TEXT)", engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i, n := range notes {
		if _, err := m.DB.InsertRowDirect("notes", []sqlval.Value{sqlval.NewInt(int64(i + 1)), n, sqlval.NewString("")}); err != nil {
			t.Fatal(err)
		}
	}
	const out = "/home/alice/notes.out"
	apps := []App{{
		Binary: "/home/alice/bin/notes",
		Libs:   ClientLibs(),
		Size:   64 << 10,
		Prog: func(p *osim.Process) error {
			conn, err := Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			res, err := conn.Query("SELECT id, body, tag FROM notes ORDER BY id")
			if err != nil {
				return err
			}
			var sb strings.Builder
			for _, row := range res.Rows {
				fmt.Fprintf(&sb, "%s|%s|%q|%q\n", row[0], row[1].Kind(), row[1].String(), row[2].String())
			}
			return p.WriteFile(out, []byte(sb.String()))
		},
	}}
	aud, err := Audit(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Kernel.FS().ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Replay(arch, appProgramsOf(apps))
	if err != nil {
		t.Fatal(err)
	}
	got, err := replayed.Kernel.FS().ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("replayed output\n%s\n!= audited output\n%s", got, want)
	}
	refs, rows, err := replayed.DB.ScanAll("notes")
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != len(notes) {
		t.Fatalf("restored %d rows, want %d", len(refs), len(notes))
	}
	for i, row := range rows {
		id := row[0].Int()
		if want := notes[id-1]; row[1].Kind() != want.Kind() || !row[1].Equal(want) {
			t.Errorf("row %d (id %d): body %s %q, want %s %q", i, id, row[1].Kind(), row[1], want.Kind(), want)
		}
	}

	exc, err := BuildServerExcluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	if replayed, err = Replay(exc, appProgramsOf(apps)); err != nil {
		t.Fatal(err)
	}
	if got, err = replayed.Kernel.FS().ReadFile(out); err != nil || string(got) != string(want) {
		t.Fatalf("server-excluded replay wrote\n%s\n(err %v), audited run\n%s", got, err, want)
	}

	// A package's data directory is outside input, checked where a server
	// checks its own: at start. One flipped byte fails the digest, naming the
	// file.
	const tbl = ProvDataDir + "/notes.tbl"
	data, err := arch.Read(tbl)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)/2] ^= 0x10
	arch.Add(tbl, flipped)
	if _, err := Replay(arch, appProgramsOf(apps)); err == nil ||
		!strings.Contains(err.Error(), "start packaged server") || !strings.Contains(err.Error(), "notes.tbl") ||
		!strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("flipped byte: err = %v", err)
	}
	// A file sealed with a valid digest over a duplicated key fails the row
	// check every loaded version passes.
	meta, err := m.DB.Table("notes")
	if err != nil {
		t.Fatal(err)
	}
	first := aud.RelevantTuples()["notes"][0]
	recs := [][]byte{
		engine.AppendLiveRecord(nil, first.Ref.Row, first.Ref.Version, first.Values),
		engine.AppendLiveRecord(nil, first.Ref.Row+1000, first.Ref.Version, first.Values),
	}
	arch.Add(tbl, engine.EncodeTableFile("notes", meta.Schema, recs))
	if _, err := Replay(arch, appProgramsOf(apps)); err == nil ||
		!strings.Contains(err.Error(), "notes.tbl") || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("duplicated key: err = %v", err)
	}
}
