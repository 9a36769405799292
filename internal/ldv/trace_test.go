package ldv

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/pack"
	"ldv/internal/prov"
)

// The PROV-JSON and DOT renderings of the alice trace were generated at the
// commit before the trace became interned integers; the string ids, labels
// and orders of the boundary must not have moved by a byte.
func TestTraceExportsMatchGolden(t *testing.T) {
	_, aud, _ := auditAlice(t)
	tr := aud.Trace()
	provJSON, err := tr.ExportPROV()
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"testdata/alice_trace.prov.json": provJSON,
		"testdata/alice_trace.dot":       []byte(tr.ExportDOT()),
	} {
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: export differs from the golden file\ngot:\n%s", name, got)
		}
	}
}

// describeTrace lists everything a trace holds, by string id (the prov
// package's codec tests use the same rendering).
func describeTrace(tr *prov.Trace) []string {
	var out []string
	for _, n := range tr.Nodes() {
		out = append(out, fmt.Sprintf("node %s type=%s label=%q binary=%q sql=%q trace=%q", n.ID, n.Type, n.Label,
			tr.Attr(n.Ref, prov.AttrBinary), tr.Attr(n.Ref, prov.AttrSQL), tr.Attr(n.Ref, prov.AttrTrace)))
	}
	var rest []string
	for _, e := range tr.Edges() {
		rest = append(rest, fmt.Sprintf("edge %s -> %s %s %v trace=%q",
			tr.ID(e.From), tr.ID(e.To), tr.EdgeLabel(e), e.T, tr.String(e.Trace)))
	}
	for _, d := range tr.Deps() {
		rest = append(rest, fmt.Sprintf("dep %s -> %s", tr.ID(d.From), tr.ID(d.To)))
	}
	slices.Sort(rest)
	return append(out, rest...)
}

// Audited traces — the alice fixture and the generated workloads of
// TestRandomizedWorkloadRoundTrip — survive Marshal/Unmarshal and the trip
// through a package with every node, type, attribute, edge, interval,
// request-trace id and dependency intact, and marshal to the same bytes
// every time.
func TestAuditedTraceRoundTrip(t *testing.T) {
	type audited struct {
		m    *Machine
		aud  *Auditor
		apps []App
	}
	cases := map[string]audited{}
	m, aud, apps := auditAlice(t)
	cases["alice"] = audited{m, aud, apps}
	for seed := int64(1); seed <= 6; seed++ {
		m := newItemsMachine(t, seed)
		apps := []App{randomApp(randomOps(seed), seed%2 == 0)} // every other one prepares and pipelines
		aud, err := Audit(m, apps)
		if err != nil {
			t.Fatal(err)
		}
		cases[fmt.Sprintf("seed=%d", seed)] = audited{m, aud, apps}
	}
	for name, c := range cases {
		tr := c.aud.Trace()
		data, err := tr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := tr.Marshal(); !bytes.Equal(data, again) {
			t.Errorf("%s: Marshal differs between two calls", name)
		}
		back, err := prov.Unmarshal(data, prov.CombinedDefault())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := describeTrace(tr)
		if got := describeTrace(back); !slices.Equal(got, want) {
			t.Errorf("%s: round trip changed the trace\nwant:\n%s\ngot:\n%s", name, strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
		arch, err := BuildServerIncluded(c.m, c.aud, c.apps)
		if err != nil {
			t.Fatal(err)
		}
		packaged, err := ReadTrace(arch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := describeTrace(packaged); !slices.Equal(got, want) {
			t.Errorf("%s: the packaged trace is not the audited one", name)
		}
	}
}

// A package that still carries the JSON trace member of earlier builds is
// refused by the format check, not misread.
func TestReadTraceRejectsJSONMember(t *testing.T) {
	m, aud, apps := auditAlice(t)
	arch, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	old, err := gzipBytes([]byte(`{"model":"PBB+PLin","nodes":[],"edges":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	arch.Add(TracePath, old)
	if _, err := ReadTrace(arch); err == nil || !strings.Contains(err.Error(), "JSON trace") {
		t.Fatalf("JSON trace member: %v", err)
	}
	// As such a package was actually laid out: the member under its old name.
	oldPkg := pack.New()
	oldPkg.Add(oldJSONTracePath, old)
	if _, err := ReadTrace(oldPkg); err == nil || !strings.Contains(err.Error(), "JSON trace") {
		t.Fatalf("JSON trace member under its old path: %v", err)
	}
}

// Packaging is a function of the audit: building twice from one Auditor
// gives the same bytes. (The manifest's table list used to follow map
// iteration order.)
func TestPackageBuildIsDeterministic(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	var script strings.Builder
	for _, tbl := range []string{"a", "b", "c", "d", "e", "f"} {
		fmt.Fprintf(&script, "CREATE TABLE %s (id INTEGER PRIMARY KEY, v INTEGER); INSERT INTO %s VALUES (1, 10), (2, 20);", tbl, tbl)
	}
	if _, err := m.DB.ExecScript(script.String(), engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	apps := []App{{
		Binary: "/bin/reader", Libs: ClientLibs(),
		Prog: func(p *osim.Process) error {
			conn, err := Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			for _, tbl := range []string{"d", "a", "f", "c"} {
				if _, err := conn.Query("SELECT v FROM " + tbl + " WHERE id = 2"); err != nil {
					return err
				}
			}
			return nil
		},
	}}
	aud, err := Audit(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	first, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Marshal()
	for i := 0; i < 10; i++ {
		again, err := BuildServerIncluded(m, aud, apps)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Marshal(), want) {
			t.Fatalf("build %d of the same audit differs from the first", i+2)
		}
	}
}

// The audit spool is CSV, and it is the package: each relevant tuple is
// encoded once, and those bytes are both its spool line and its package
// row — values with commas, quotes, line breaks, the empty string and NULL
// included — and restore from the package to the same values.
func TestSpoolIsThePackageCSV(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	values := []string{"x,y", `say "hi"`, "two\nlines", "", "plain", `",`}
	script := "CREATE TABLE notes (id INTEGER PRIMARY KEY, body TEXT, n INTEGER);"
	for i, v := range values {
		script += fmt.Sprintf("INSERT INTO notes VALUES (%d, '%s', %d);", i+1, v, i)
	}
	script += "INSERT INTO notes VALUES (100, NULL, NULL);"
	if _, err := m.DB.ExecScript(script, engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	report := func(p *osim.Process) error {
		conn, err := Dial(p)
		if err != nil {
			return err
		}
		defer conn.Close()
		var sb strings.Builder
		// Two statements, the second re-reading part of the first: the spool
		// is appended to per statement and holds each version once.
		for _, q := range []string{"SELECT id, body, n FROM notes WHERE id > 3 ORDER BY id", "SELECT id, body, n FROM notes ORDER BY id"} {
			res, err := conn.Query(q)
			if err != nil {
				return err
			}
			for _, row := range res.Rows {
				fmt.Fprintf(&sb, "%s|%q|%s\n", row[0], row[1].String(), row[2])
			}
		}
		return p.WriteFile("/notes.txt", []byte(sb.String()))
	}
	apps := []App{{Binary: "/bin/notes", Libs: ClientLibs(), Prog: report}}
	aud, err := Audit(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Kernel.FS().ReadFile("/notes.txt")
	if err != nil {
		t.Fatal(err)
	}
	arch, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}

	readCSV := func(what string, data []byte) [][]string {
		recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			t.Fatalf("%s is not CSV: %v\n%s", what, err, data)
		}
		return recs
	}
	spoolData, err := m.Kernel.FS().ReadFile(SpoolDir + "/notes.csv")
	if err != nil {
		t.Fatal(err)
	}
	pkgData, err := arch.Read(ProvDataDir + "/notes.csv")
	if err != nil {
		t.Fatal(err)
	}
	spool, pkg := readCSV("spool", spoolData), readCSV("package CSV", pkgData)
	if len(spool) != len(values)+1 {
		t.Fatalf("spool holds %d records, want one per relevant tuple (%d)", len(spool), len(values)+1)
	}
	body := pkg[1:] // minus the header
	if got := strings.Join(pkg[0], ","); got != "prov_rowid,prov_v,prov_p,id,body,n" {
		t.Errorf("package CSV header = %s", got)
	}
	byRecord := func(recs [][]string) []string {
		out := make([]string, len(recs))
		for i, r := range recs {
			out[i] = strings.Join(r, "\x1f")
		}
		sort.Strings(out)
		return out
	}
	if !slices.Equal(byRecord(spool), byRecord(body)) {
		t.Errorf("spool and package rows differ:\nspool %q\npackage %q", spool, body)
	}
	// The spool is in first-relevance order (ids 4.. first); the package is
	// in row order whatever order the statements read in.
	if spool[0][0] == body[0][0] {
		t.Errorf("spool starts with row %s: the second statement did not add lower row ids", spool[0][0])
	}
	rowOf := func(r []string) int { n, _ := strconv.Atoi(r[0]); return n }
	if !slices.IsSortedFunc(body, func(a, b []string) int { return rowOf(a) - rowOf(b) }) {
		t.Errorf("package rows are not in row order: %q", body)
	}
	for _, v := range values {
		if !slices.ContainsFunc(body, func(r []string) bool { return r[4] == "s:"+v }) {
			t.Errorf("value %q did not survive as one CSV field", v)
		}
	}

	rep, err := Replay(arch, map[string]osim.Program{"/bin/notes": report})
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.Kernel.FS().ReadFile("/notes.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("replay from the package read other values:\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestStatementType(t *testing.T) {
	cases := map[string]string{
		"INSERT INTO t VALUES (1)":        prov.TypeInsert,
		"  \n\tinsert into t values (1)":  prov.TypeInsert,
		"UPDATE t SET a = 1":              prov.TypeUpdate,
		"delete from t":                   prov.TypeDelete,
		"SELECT ' TO ' FROM t":            prov.TypeQuery,
		"COPY t FROM '/in.csv'":           prov.TypeInsert,
		"copy t\nfrom '/in.csv'":          prov.TypeInsert,
		"COPY t TO '/out.csv'":            prov.TypeQuery,
		"COPY t FROM '/in TO /out.csv'":   prov.TypeInsert, // the path is not the direction
		"COPY t TO '/dump FROM /old.csv'": prov.TypeQuery,
		"COPY":                            prov.TypeQuery,
		"":                                prov.TypeQuery,
		"INSERTED":                        prov.TypeQuery,
	}
	for sql, want := range cases {
		if got := statementType(sql); got != want {
			t.Errorf("statementType(%q) = %s, want %s", sql, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { statementType("  insert into t values (1)") }); n != 0 {
		t.Errorf("statementType allocates %v times per call", n)
	}
}

// Tuple node ids parse strictly — only what TupleNodeID renders — and from
// the right, so table names may hold the separators.
func TestTupleRefOfNodeStrict(t *testing.T) {
	for _, ref := range []engine.TupleRef{
		{Table: "orders", Row: 42, Version: 7},
		{Table: "a/b", Row: 1, Version: 2},
		{Table: "t@x", Row: 0, Version: 1},
		{Table: "a/1@2/b", Row: 3, Version: 4},
		{Table: "", Row: 5, Version: 6},
		{Table: "t", Row: 1<<64 - 1, Version: 1<<64 - 1},
	} {
		id := TupleNodeID(ref)
		if back, ok := TupleRefOfNode(id); !ok || back != ref {
			t.Errorf("TupleRefOfNode(%q) = %v, %v; want %v", id, back, ok, ref)
		}
	}
	for _, id := range []string{
		"tuple:t/12x@3", "tuple:t/12@3x", "tuple:t/+12@3", "tuple:t/012@3", "tuple:t/12@03",
		"tuple:t/@3", "tuple:t/12@", "tuple:t12@3", "tuple:t/12", "tuple:t/1@18446744073709551616",
		"tuple:t/ 12@3", "rtuple:4/0", "tuple", "",
	} {
		if ref, ok := TupleRefOfNode(id); ok {
			t.Errorf("TupleRefOfNode(%q) accepted as %v", id, ref)
		}
	}
}

// An open that has been matched by its close leaves nothing behind.
func TestOpensAreReleased(t *testing.T) {
	_, aud, _ := auditAlice(t)
	aud.mu.Lock()
	defer aud.mu.Unlock()
	if len(aud.opens) != 0 {
		t.Errorf("%d open-file stacks left after every file was closed: %v", len(aud.opens), aud.opens)
	}
}
