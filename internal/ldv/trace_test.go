package ldv

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"ldv/internal/bin"
	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/prov"
	"ldv/internal/sqlval"
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
}

// Packaging is a function of the audit: building twice from one Auditor
// gives the same bytes. (A package's list of tables once followed map
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

// liveRecord is one record of a table file's live-row section.
type liveRecord struct {
	id, version  uint64
	proc         string
	stmt, usedBy int64
	vals         []sqlval.Value
}

func (rec liveRecord) String() string {
	return fmt.Sprintf("%d@%d proc=%q stmt=%d usedBy=%d %v", rec.id, rec.version, rec.proc, rec.stmt, rec.usedBy, rec.vals)
}

// readLiveRecord reads one live-row record field by field (DESIGN.md "Value
// layout and table storage"), without the engine's decoder.
func readLiveRecord(r *bin.Reader) liveRecord {
	rec := liveRecord{id: r.Uvarint(), version: r.Uvarint(), proc: r.Str(), stmt: r.Varint(), usedBy: r.Varint()}
	rec.vals = sqlval.ReadRow(r, nil)
	return rec
}

// readPackagedTableFile decodes a packaged table file by hand: magic, name,
// schema, the live rows, and empty index and history sections at horizon 0
// before the digest.
func readPackagedTableFile(t *testing.T, data []byte) (name string, recs []liveRecord) {
	t.Helper()
	r := bin.NewReader(data)
	if magic := string(r.Fixed(8)); magic != "LDVTBL2\n" {
		t.Fatalf("magic %q", magic)
	}
	name = r.Str()
	for n := r.Count("column", 3); n > 0; n-- {
		r.Str()
		r.Byte()
		r.Byte()
	}
	for n := r.Count("row", 6); n > 0 && r.Err() == nil; n-- {
		recs = append(recs, readLiveRecord(r))
	}
	if nidx, ndead, horizon := r.Count("index", 3), r.Count("dead", 7), r.Uvarint(); nidx != 0 || ndead != 0 || horizon != 0 {
		t.Errorf("%s: %d indexes, %d dead versions, horizon %d; want none", name, nidx, ndead, horizon)
	}
	r.Fixed(8) // the digest
	if err := r.Done(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return name, recs
}

// The audit spool is the package's row section, and the package's table
// files are the server's own: each relevant tuple is encoded once, as the
// table file's live-row record, and those bytes are both its spool record and
// its package row — values with commas, quotes, line breaks, the empty string
// and NULL included. Sealed, they are byte for byte what a checkpoint of the
// same versions writes, and they replay to the same values.
func TestSpoolIsThePackageRowSection(t *testing.T) {
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
	script += "CREATE TABLE tags (id INTEGER PRIMARY KEY, tag TEXT); INSERT INTO tags VALUES (1, 'unread');"
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

	mustRead := func(data []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// The spool: records back to back, nothing else.
	spoolData, err := m.Kernel.FS().ReadFile(SpoolDir + "/notes.rows")
	if err != nil {
		t.Fatal(err)
	}
	var spool []liveRecord
	for r := bin.NewReader(spoolData); r.Len() > 0; {
		if rec := readLiveRecord(r); r.Err() == nil {
			spool = append(spool, rec)
		} else {
			t.Fatalf("spool record %d: %v", len(spool), r.Err())
		}
	}
	if m.Kernel.FS().Exists(SpoolDir + "/tags.rows") {
		t.Error("a table the application never read was spooled")
	}
	name, file := readPackagedTableFile(t, mustRead(arch.Read(ProvDataDir+"/notes.tbl")))
	if name != "notes" {
		t.Errorf("notes.tbl holds table %q", name)
	}
	// The same versions — one per relevant tuple, each preloaded — in two
	// orders: the spool's is first relevance (the first statement read ids
	// above 3), the file's is (row, version) whatever order they were read in.
	if len(spool) != len(values)+1 {
		t.Fatalf("spool holds %d records, want one per relevant tuple (%d)", len(spool), len(values)+1)
	}
	byRowVersion := func(a, b liveRecord) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.version, b.version)
	}
	if !slices.IsSortedFunc(file, byRowVersion) {
		t.Errorf("the package's rows are not in (row, version) order:\n%v", file)
	}
	sorted := slices.Clone(spool)
	slices.SortStableFunc(sorted, byRowVersion)
	if fmt.Sprint(sorted) != fmt.Sprint(file) {
		t.Errorf("spool and package rows differ:\nspool   %v\npackage %v", spool, file)
	}
	for i, rec := range spool {
		if first := rec.vals[0].Int() > 3; first != (i < 4) {
			t.Errorf("spool record %d is id %d: not first-relevance order\n%v", i, rec.vals[0].Int(), spool)
		}
		if rec.proc != "" || rec.stmt != 0 || rec.usedBy != 0 {
			t.Errorf("spool record %v is not a preloaded version", rec)
		}
	}
	for _, v := range values {
		if !slices.ContainsFunc(file, func(rec liveRecord) bool { return rec.vals[1].Str() == v }) {
			t.Errorf("value %q did not survive", v)
		}
	}

	// Every table of the database is packaged, and each file is what a
	// checkpoint writes for a fresh database holding those versions.
	if got := arch.PathsUnder(ProvDataDir); fmt.Sprint(got) != "[/db/provenance/notes.tbl /db/provenance/tags.tbl]" {
		t.Errorf("package data directory = %v", got)
	}
	for _, table := range m.DB.TableNames() {
		packaged := mustRead(arch.Read(ProvDataDir + "/" + table + ".tbl"))
		_, recs := readPackagedTableFile(t, packaged)
		meta, err := m.DB.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		fresh := engine.NewDB(nil)
		if err := fresh.CreateTableFromSchema(table, meta.Schema); err != nil {
			t.Fatal(err)
		}
		next := recs
		if err := fresh.RestoreRows(table, len(recs), func(row *engine.RestoredRow) (bool, error) {
			if len(next) == 0 {
				return false, nil
			}
			row.ID, row.Version, row.Proc, row.Vals = engine.RowID(next[0].id), next[0].version, next[0].proc, next[0].vals
			next = next[1:]
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		fs := osim.NewFS()
		if err := fresh.Checkpoint(fs, "/d"); err != nil {
			t.Fatal(err)
		}
		if ckpt := mustRead(fs.ReadFile("/d/" + table + ".tbl")); !bytes.Equal(packaged, ckpt) {
			t.Errorf("%s: the packaged table file is not the checkpoint of its versions\npackage    %x\ncheckpoint %x", table, packaged, ckpt)
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

// A statement's activity type is the kind the engine classified it as, not
// a guess from the SQL text's first word: a statement behind a comment is
// typed by what it is, and an UPDATE's old → new version dependencies enter
// the trace with it. COPY ... FROM is a bulk insert and COPY ... TO a query;
// EXPLAIN ANALYZE of an UPDATE writes no trace dependencies and is a query.
func TestStatementKindFromEngine(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DB.ExecScript(`
		CREATE TABLE src (id INTEGER PRIMARY KEY, v INTEGER);
		CREATE TABLE dst (id INTEGER PRIMARY KEY, v INTEGER);
		INSERT INTO src VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50);`, engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Kernel.FS().WriteFile("/in.csv", []byte("6,60\n")); err != nil {
		t.Fatal(err)
	}
	const (
		update  = "-- note\nUPDATE src SET v = v + 1 WHERE id >= 4"
		insert  = "-- copy three\nINSERT INTO dst SELECT id, v FROM src WHERE id <= 3"
		del     = "-- and drop one\nDELETE FROM dst WHERE id = 3"
		load    = "COPY src FROM '/in.csv'"
		export  = "COPY dst TO '/out.csv'"
		explain = "EXPLAIN ANALYZE UPDATE src SET v = 0 WHERE id = 1"
	)
	aud, err := Audit(m, []App{shopApp("kinds", update, insert, del, load, export, explain)})
	if err != nil {
		t.Fatal(err)
	}
	tr := aud.Trace()
	want := map[string]string{
		update: prov.TypeUpdate, insert: prov.TypeInsert, del: prov.TypeDelete,
		load: prov.TypeInsert, export: prov.TypeQuery, explain: prov.TypeQuery,
	}
	stmts := map[string]prov.Ref{}
	for r := prov.Ref(0); int(r) < tr.NodeCount(); r++ {
		if tr.Key(r).Kind == prov.KindStmt {
			stmts[tr.Attr(r, prov.AttrSQL)] = r
		}
	}
	for sql, typ := range want {
		if r, ok := stmts[sql]; !ok {
			t.Errorf("%q: no statement node", sql)
		} else if got := tr.Type(r); got != typ {
			t.Errorf("%q typed %s, want %s", sql, got, typ)
		}
	}
	// The versions each statement read and wrote, by its edges, and the
	// dependencies into what it wrote.
	read, wrote := map[prov.Ref][]string{}, map[prov.Ref][]string{}
	for _, e := range tr.Edges() {
		switch tr.EdgeLabel(e) {
		case prov.EdgeHasRead:
			read[e.To] = append(read[e.To], tr.ID(e.From))
		case prov.EdgeHasReturned:
			if tr.Key(e.To).Kind == prov.KindTuple {
				wrote[e.From] = append(wrote[e.From], tr.ID(e.To))
			}
		}
	}
	deps := map[string][]string{}
	for _, d := range tr.Deps() {
		deps[tr.ID(d.To)] = append(deps[tr.ID(d.To)], tr.ID(d.From))
	}
	upd := stmts[update]
	if len(read[upd]) != 2 || len(wrote[upd]) != 2 {
		t.Fatalf("UPDATE read %v and wrote %v, want 2 and 2", read[upd], wrote[upd])
	}
	for _, nw := range wrote[upd] {
		from := deps[nw]
		if len(from) != 1 || !strings.HasPrefix(nw, from[0][:strings.LastIndexByte(from[0], '@')+1]) || !slices.Contains(read[upd], from[0]) {
			t.Errorf("UPDATE's new version %s depends on %v, want its old version alone", nw, from)
		}
	}
	ins := stmts[insert]
	if len(read[ins]) != 3 || len(wrote[ins]) != 3 {
		t.Fatalf("INSERT ... SELECT read %v and wrote %v, want 3 and 3", read[ins], wrote[ins])
	}
	for _, nw := range wrote[ins] {
		if got := deps[nw]; len(got) != 3 {
			t.Errorf("INSERT ... SELECT's %s depends on %v, want every version it read", nw, got)
		}
	}
	if got := len(wrote[stmts[load]]); got != 1 {
		t.Errorf("COPY FROM wrote %d versions, want 1", got)
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

// wideTraceDigest is the content of the audited ldv_wide trace, pinned at
// the commit before the trace's node index and edge runs changed
// representation: any later representation change must leave it equal.
const wideTraceDigest = "e41262a907eec98c8dc40a6000dda1064ff4a8b585bb6113303271b943233c85"

// The audited wide trace's content — every node's id, type and label, the
// edges by time as (from, to, label, interval, traced or not) and the
// dependency set — hashes to the pinned digest. Request-trace ids are
// random per run, so only their presence enters the hash.
func TestAuditedWideTraceContentPinned(t *testing.T) {
	_, aud, _ := auditWide(t)
	tr := aud.Trace()
	h := sha256.New()
	for _, n := range tr.Nodes() {
		fmt.Fprintf(h, "node %s %s %q\n", n.ID, n.Type, n.Label)
	}
	for _, e := range tr.EdgesByTime() {
		fmt.Fprintf(h, "edge %s %s %s %v %t\n", tr.ID(e.From), tr.ID(e.To), tr.EdgeLabel(e), e.T, e.Trace != 0)
	}
	for _, d := range tr.Deps() {
		fmt.Fprintf(h, "dep %s %s\n", tr.ID(d.From), tr.ID(d.To))
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d nodes, %d edges, %d deps", tr.NodeCount(), tr.EdgeCount(), len(tr.Deps()))
	if got != wideTraceDigest {
		t.Errorf("audited ldv_wide trace digest = %s, pinned %s", got, wideTraceDigest)
	}
}

// An audited INSERT ... SELECT records that every version it wrote depends
// on every version it read — exactly the k × m pairs — and an audited
// UPDATE pairs each old version with the new version of the same row.
func TestAuditedDMLDependencies(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DB.ExecScript(`
		CREATE TABLE src (id INTEGER PRIMARY KEY, v INTEGER);
		CREATE TABLE dst (id INTEGER PRIMARY KEY, v INTEGER);
		INSERT INTO src VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50);`, engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	app := shopApp("copier",
		"INSERT INTO dst SELECT id, v FROM src WHERE id <= 3",
		"UPDATE src SET v = v + 1 WHERE id >= 4")
	aud, err := Audit(m, []App{app})
	if err != nil {
		t.Fatal(err)
	}
	tr := aud.Trace()
	// The versions each statement read and wrote, by its hasRead and
	// hasReturned edges.
	read, wrote := map[string][]string{}, map[string][]string{}
	for _, e := range tr.Edges() {
		switch tr.EdgeLabel(e) {
		case prov.EdgeHasRead:
			read[tr.Type(e.To)] = append(read[tr.Type(e.To)], tr.ID(e.From))
		case prov.EdgeHasReturned:
			wrote[tr.Type(e.From)] = append(wrote[tr.Type(e.From)], tr.ID(e.To))
		}
	}
	var want []string
	ins, upd := read[prov.TypeInsert], read[prov.TypeUpdate]
	if len(ins) != 3 || len(wrote[prov.TypeInsert]) != 3 {
		t.Fatalf("INSERT ... SELECT read %v and wrote %v, want 3 and 3", ins, wrote[prov.TypeInsert])
	}
	for _, from := range ins {
		for _, to := range wrote[prov.TypeInsert] {
			want = append(want, from+" -> "+to)
		}
	}
	if len(upd) != 2 || len(wrote[prov.TypeUpdate]) != 2 {
		t.Fatalf("UPDATE read %v and wrote %v, want 2 and 2", upd, wrote[prov.TypeUpdate])
	}
	for _, from := range upd {
		at := strings.LastIndexByte(from, '@')
		for _, to := range wrote[prov.TypeUpdate] {
			if strings.HasPrefix(to, from[:at+1]) {
				want = append(want, from+" -> "+to)
			}
		}
	}
	var got []string
	for _, d := range tr.Deps() {
		got = append(got, tr.ID(d.From)+" -> "+tr.ID(d.To))
	}
	slices.Sort(got)
	slices.Sort(want)
	if len(want) != 3*3+2 || !slices.Equal(got, want) {
		t.Errorf("deps:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
