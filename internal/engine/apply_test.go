package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"ldv/internal/sqlval"
)

// One way a WAL record becomes state, checked three ways. A generated
// workload runs on a WAL-backed primary while a replica applies every record
// the primary ships, and at the end a third database recovers from a copy of
// the primary's directory. The three must hold the same versions — dead ones
// too, with their stamps — the same counters and retention horizon, and the
// same transaction history; and each must hold secondary indexes equal to a
// rebuild and a primary-key map equal to its live set.

// shipped is one flushed group-commit batch, as a shipper hook receives it.
type shipped struct {
	first uint64
	batch []byte
}

// follower is a replica without the wire: repl.Replica's bootstrap and apply
// loop, fed by the primary's shipper hook.
type follower struct {
	db   *DB
	a    *Applier
	next uint64 // the sequence to apply next

	mu      sync.Mutex
	pending []shipped
}

// follow bootstraps a replica of p from a snapshot cut and queues every batch
// p flushes from then on.
func follow(t testing.TB, p *DB) *follower {
	t.Helper()
	f := &follower{db: NewDB(nil)}
	p.WAL().SetShipper(func(first uint64, batch []byte) {
		f.mu.Lock()
		f.pending = append(f.pending, shipped{first, append([]byte(nil), batch...)})
		f.mu.Unlock()
	})
	snap, err := p.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range snap.Tables {
		if _, err := f.db.LoadTableImage(img.Data); err != nil {
			t.Fatal(err)
		}
	}
	f.db.FinishLoad()
	f.a, f.next = f.db.NewApplier(), snap.CutSeq+1
	return f
}

// catchUp applies every queued record past the cut, in sequence order.
func (f *follower) catchUp(t testing.TB) {
	t.Helper()
	f.mu.Lock()
	batches := f.pending
	f.pending = nil
	f.mu.Unlock()
	for _, b := range batches {
		for i, rec := range SplitWALBatch(b.batch) {
			seq := b.first + uint64(i)
			if seq < f.next {
				continue
			}
			if _, err := f.a.ApplyRecord(seq, rec); err != nil {
				t.Fatalf("apply record %d: %v", seq, err)
			}
			f.next = seq + 1
		}
	}
}

// versionState renders what applying records decides: the horizon, and per
// table its schema, counters, index definitions and every stored version with
// its stamps and values. prov_usedby is left out: no log carries it.
func versionState(db *DB) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "horizon %d\n", db.VacuumHorizon())
	for _, t := range db.tableList() {
		t.mu.RLock()
		fmt.Fprintf(&sb, "table %s %v live=%d versions=%d dead=%d\n", t.Name, t.Schema.Columns,
			t.liveRows.Load(), t.versions.Load(), t.deadVersions.Load())
		for _, ix := range t.indexList() {
			fmt.Fprintf(&sb, "  index %s on %s %s\n", ix.name, ix.column, ix.kind)
		}
		lines := make([]string, 0, len(t.rows))
		for _, r := range t.rows {
			line := fmt.Sprintf("  %d@%d end=%d proc=%q stmt=%d", r.id, r.version, r.end, r.proc, r.stmt)
			for _, v := range r.vals {
				line += fmt.Sprintf(" %s:%q", v.Kind(), v.String())
			}
			lines = append(lines, line)
		}
		t.mu.RUnlock()
		sort.Strings(lines)
		sb.WriteString(strings.Join(lines, "\n") + "\n")
	}
	return sb.String()
}

// checkDerived checks what a database derives from its versions: every
// secondary index holds exactly what a rebuild from the versions holds, and
// the primary-key map holds exactly the live versions, each under its key.
func checkDerived(t *testing.T, label string, db *DB) {
	t.Helper()
	for _, tbl := range db.tableList() {
		tbl.mu.RLock()
		for _, ix := range tbl.indexList() {
			fresh := newTableIndex(ix.name, ix.column, ix.col, ix.kind)
			fresh.rebuild(tbl.rows)
			if got, want := indexContents(ix), indexContents(fresh); got != want {
				t.Errorf("%s: index %s differs from a rebuild\n--- index\n%s\n--- rebuild\n%s", label, ix.name, got, want)
			}
		}
		if pk := tbl.Schema.PrimaryKeyIndex(); pk >= 0 {
			live := 0
			for _, r := range tbl.rows {
				if r.end != 0 {
					continue
				}
				live++
				if tbl.pkIndex[keyOf(r.vals[pk])] != r {
					t.Errorf("%s: table %s: live version %d@%d does not hold its key %s", label, tbl.Name, r.id, r.version, r.vals[pk])
				}
			}
			if len(tbl.pkIndex) != live {
				t.Errorf("%s: table %s: %d primary-key entries for %d live versions", label, tbl.Name, len(tbl.pkIndex), live)
			}
		}
		tbl.mu.RUnlock()
	}
}

// indexContents renders an index as its counters and, key by key, the
// versions under it in a canonical order.
func indexContents(ix *tableIndex) string {
	buckets := map[string][]string{}
	add := func(key string, rows []*storedRow) {
		for _, r := range rows {
			buckets[key] = append(buckets[key], fmt.Sprintf("%d@%d", r.id, r.version))
		}
	}
	for k, rows := range ix.hash {
		add(k, rows)
	}
	for _, b := range ix.ordered {
		add(b.key.GroupKey(), b.rows)
	}
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
		sort.Strings(buckets[k])
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "entries=%d keys=%d\n", ix.entries.Load(), ix.keys.Load())
	for _, k := range keys {
		fmt.Fprintf(&sb, "%q: %v\n", k, buckets[k])
	}
	return sb.String()
}

// histRow is one row of ldv_stat_versions without commit_tick, which no log
// carries: the WAL record is written before the commit tick exists.
type histRow struct{ txn, snap, seq, stmts, rows int64 }

func history(t *testing.T, db *DB) []histRow {
	t.Helper()
	res := mustExec(t, db, "SELECT txn, snapshot_tick, commit_seq, statements, rows FROM ldv_stat_versions ORDER BY txn", ExecOptions{})
	out := make([]histRow, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, histRow{r[0].Int(), r[1].Int(), r[2].Int(), r[3].Int(), r[4].Int()})
	}
	return out
}

// loggedAfter keeps the rows whose record sits past sequence after: a
// transaction that wrote nothing committed without a record (sequence 0),
// and a checkpoint's truncation takes the records before its cut along.
func loggedAfter(h []histRow, after int64) []histRow {
	var out []histRow
	for _, r := range h {
		if r.seq > after {
			out = append(out, r)
		}
	}
	return out
}

func sameHistory(t *testing.T, label string, want, got []histRow) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d transactions in the history, the primary has %d\n%v\n%v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: history row %d is %+v, the primary's is %+v", label, i, got[i], want[i])
		}
	}
}

// equivRun is one generated workload: DDL, DML, explicit transactions left
// open across other work and committed or rolled back, index DDL, VACUUM and
// checkpoints. Keys are never reused, so no run asks the primary-key rule
// about a key an open transaction freed (TestApplyKeyFreedByALaterCommit
// does).
type equivRun struct {
	t       *testing.T
	rng     *rand.Rand
	fs      *mapFS
	p       *DB
	f       *follower
	open    []*Session
	next    int      // the last id handed out
	idx     []string // live index names
	scratch bool     // whether t2 exists
}

func (w *equivRun) exec(s *Session, sql string) {
	w.t.Helper()
	proc := []string{"", "app", "p/2"}[w.rng.Intn(3)]
	if _, err := s.Exec(sql, ExecOptions{Proc: proc}); err != nil && !strings.Contains(err.Error(), "could not serialize") {
		w.t.Fatalf("Exec(%q): %v", sql, err)
	}
}

func (w *equivRun) dml(s *Session) {
	tbl := []string{"t0", "t1"}[w.rng.Intn(2)]
	id := 1 + w.rng.Intn(w.next+1)
	switch w.rng.Intn(6) {
	case 0, 1:
		w.next++
		w.exec(s, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, 'b%d')", tbl, w.next, w.rng.Intn(20), w.rng.Intn(5)))
	case 2:
		w.exec(s, fmt.Sprintf("UPDATE %s SET a = a + 1 WHERE id = %d", tbl, id))
	case 3: // a new key, always a fresh one
		w.next++
		w.exec(s, fmt.Sprintf("UPDATE %s SET id = %d, b = 'moved' WHERE id = %d", tbl, w.next, id))
	case 4:
		w.exec(s, fmt.Sprintf("SELECT id, a FROM %s WHERE a < %d", tbl, w.rng.Intn(20)))
	default:
		w.exec(s, fmt.Sprintf("DELETE FROM %s WHERE id = %d", tbl, id))
	}
}

func (w *equivRun) step() {
	auto := w.p.defaultSession()
	switch op := w.rng.Intn(24); {
	case op < 8:
		w.dml(auto)
	case op < 10 && len(w.open) < 2:
		s := w.p.NewSession()
		w.exec(s, "BEGIN")
		w.dml(s)
		w.open = append(w.open, s)
	case op < 12 && len(w.open) > 0:
		w.dml(w.open[w.rng.Intn(len(w.open))])
	case op < 14 && len(w.open) > 0:
		i := w.rng.Intn(len(w.open))
		w.exec(w.open[i], []string{"COMMIT", "ROLLBACK"}[w.rng.Intn(2)])
		w.open[i].Close()
		w.open = append(w.open[:i], w.open[i+1:]...)
	case op < 16:
		if len(w.idx) > 0 && w.rng.Intn(2) == 0 {
			w.exec(auto, "DROP INDEX "+w.idx[0])
			w.idx = w.idx[1:]
			break
		}
		name := fmt.Sprintf("ix%d", w.rng.Int63())
		using := []string{"", " USING ordered"}[w.rng.Intn(2)]
		w.exec(auto, fmt.Sprintf("CREATE INDEX %s ON %s (%s)%s", name, []string{"t0", "t1"}[w.rng.Intn(2)], []string{"a", "b"}[w.rng.Intn(2)], using))
		w.idx = append(w.idx, name)
	case op < 17: // a table no open transaction writes, created with rows and dropped again
		if w.scratch {
			w.exec(auto, "DROP TABLE t2")
		} else {
			w.exec(auto, "CREATE TABLE t2 (id INT PRIMARY KEY, a INT)")
			w.exec(auto, fmt.Sprintf("INSERT INTO t2 VALUES (1, %d), (2, %d)", w.rng.Intn(9), w.rng.Intn(9)))
		}
		w.scratch = !w.scratch
	case op < 19:
		w.exec(auto, []string{"VACUUM RETAIN 20", "VACUUM RETAIN 300", "VACUUM RETAIN 300"}[w.rng.Intn(3)])
	case op < 21:
		if err := w.p.Checkpoint(w.fs, "/d"); err != nil {
			w.t.Fatal(err)
		}
	default:
		w.dml(auto)
	}
	w.f.catchUp(w.t)
}

// runEquivWorkload runs one seed and returns how many transactions the
// replica's and the recovered database's histories were compared on.
func runEquivWorkload(t *testing.T, seed int64) (replicated, recovered int) {
	w := &equivRun{t: t, rng: rand.New(rand.NewSource(seed)), fs: newMapFS()}
	w.p, _ = recoverInto(t, w.fs, "/d")
	w.f = follow(t, w.p)
	auto := w.p.defaultSession()
	w.exec(auto, "CREATE TABLE t0 (id INT PRIMARY KEY, a INT, b TEXT)")
	w.exec(auto, "CREATE TABLE t1 (id INT, a INT, b TEXT)")
	for i := 0; i < 300; i++ {
		w.step()
	}
	for _, s := range w.open {
		w.exec(s, []string{"COMMIT", "ROLLBACK"}[w.rng.Intn(2)])
		s.Close()
	}
	w.f.catchUp(t)
	disk := newMapFS()
	disk.files = w.fs.snapshotFiles()
	rec, _ := recoverInto(t, disk, "/d")

	want := versionState(w.p)
	for _, side := range []struct {
		label string
		db    *DB
	}{{"primary", w.p}, {"replica", w.f.db}, {"recovered", rec}} {
		checkDerived(t, side.label, side.db)
		if got := versionState(side.db); got != want {
			t.Fatalf("the %s differs from the primary\n--- primary\n%s--- %s\n%s", side.label, want, side.label, got)
		}
	}
	primary := history(t, w.p)
	replica := history(t, w.f.db)
	sameHistory(t, "replica", loggedAfter(primary, 0), replica)
	// The recovered log starts where the last checkpoint cut it: its records
	// are the primary's last ones, numbered from one.
	cut := int64(w.p.WAL().Seq() - rec.WAL().Seq())
	restored := history(t, rec)
	for i := range restored {
		restored[i].seq += cut
	}
	sameHistory(t, "recovered", loggedAfter(primary, cut), restored)
	return len(replica), len(restored)
}

func TestReplicaAndRecoveryEqualThePrimary(t *testing.T) {
	var replicated, recovered int
	for seed := int64(0); seed < 24; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			n, m := runEquivWorkload(t, seed)
			replicated, recovered = replicated+n, recovered+m
		})
	}
	t.Logf("histories compared on %d replicated and %d recovered transactions", replicated, recovered)
	if replicated < 200 || recovered < 50 {
		t.Errorf("the workloads hardly exercise the history")
	}
}

// TestRecoverOverAFileNewerThanItsLog is the mix a crash between a
// checkpoint's table files and its log truncation leaves behind: the file was
// written after VACUUM pruned k=1's first version and k=2, and the log still
// inserts them — k=1's under a key its newer live version holds. Recovery
// leaves the key to that holder, ends both versions again and prunes them
// again: it equals the file.
func TestRecoverOverAFileNewerThanItsLog(t *testing.T) {
	fs := newMapFS()
	db, _ := recoverInto(t, fs, "/d")
	mustExec(t, db, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)", ExecOptions{})
	mustExec(t, db, "CREATE INDEX t_v ON t (v)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')", ExecOptions{})
	mustExec(t, db, "UPDATE t SET v = 'z' WHERE k = 1", ExecOptions{})
	mustExec(t, db, "DELETE FROM t WHERE k = 2", ExecOptions{})
	if res := mustExec(t, db, "VACUUM", ExecOptions{}); res.RowsAffected != 2 {
		t.Fatalf("VACUUM pruned %d versions, want 2", res.RowsAffected)
	}
	log, err := fs.ReadFile("/d/" + WALFileName)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/d/"+WALFileName, log); err != nil { // the truncation never happened
		t.Fatal(err)
	}
	file := NewDB(nil)
	if err := file.LoadDir(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	rec, _ := recoverInto(t, fs, "/d")
	checkDerived(t, "recovered", rec)
	if want, got := versionState(file), versionState(rec); got != want {
		t.Fatalf("recovered over a newer file differs from the file\n--- file\n%s--- recovered\n%s", want, got)
	}
}

// TestApplyKeyFreedByALaterCommit: a transaction deletes k and stays open
// while another inserts k again and commits first, so the log holds the new
// k before the end mark that freed the old one. The primary accepted that
// history; the replica and recovery must apply it too, and leave the key
// where the primary has it: with the newest live version.
func TestApplyKeyFreedByALaterCommit(t *testing.T) {
	fs := newMapFS()
	p, _ := recoverInto(t, fs, "/d")
	mustExec(t, p, "CREATE TABLE t (k INT PRIMARY KEY, v TEXT)", ExecOptions{})
	mustExec(t, p, "INSERT INTO t VALUES (1, 'old')", ExecOptions{})
	f := follow(t, p)
	s := p.NewSession()
	defer s.Close()
	for _, sql := range []string{"BEGIN", "DELETE FROM t WHERE k = 1"} {
		if _, err := s.Exec(sql, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, p, "INSERT INTO t VALUES (1, 'new')", ExecOptions{})
	if _, err := s.Exec("COMMIT", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	f.catchUp(t)
	rec, _ := recoverInto(t, fs, "/d")
	want := versionState(p)
	for _, side := range []struct {
		label string
		db    *DB
	}{{"replica", f.db}, {"recovered", rec}} {
		checkDerived(t, side.label, side.db)
		if got := versionState(side.db); got != want {
			t.Fatalf("the %s differs from the primary\n--- primary\n%s--- %s\n%s", side.label, want, side.label, got)
		}
	}
}

// TestFailedApplyRecordStaysInvisible: a record that fails part-way — here
// an insert into t, then one into a table that does not exist — leaves
// nothing a snapshot can see once the clock passes its stamps, neither at the
// head nor AS OF, and holds no transaction open to pin the vacuum horizon.
func TestFailedApplyRecordStaysInvisible(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT PRIMARY KEY)")
	stamp := db.ClockNow() + 1
	rec := encodeWALTxn(7, []redoEntry{
		{kind: walInsert, table: "t", id: 100, version: stamp, vals: []sqlval.Value{sqlval.NewInt(1)}},
		{kind: walInsert, table: "missing", id: 101, version: stamp + 1, vals: []sqlval.Value{sqlval.NewInt(2)}},
	})
	if _, err := db.NewApplier().ApplyRecord(1, rec); err == nil {
		t.Fatal("a record inserting into a missing table applied")
	}
	for db.ClockNow() <= stamp+1 {
		db.clock.Tick()
	}
	for _, q := range []string{
		"SELECT k FROM t",
		fmt.Sprintf("SELECT k FROM t AS OF %d", stamp),
		fmt.Sprintf("SELECT k FROM t AS OF %d", stamp+1),
	} {
		if got := rowsToStrings(mustExec(t, db, q, ExecOptions{})); len(got) != 0 {
			t.Fatalf("%s sees %v of a record that failed", q, got)
		}
	}
	db.txnMu.RLock()
	open := len(db.activeTxns)
	db.txnMu.RUnlock()
	if open != 0 {
		t.Fatalf("%d transactions still active after the failed record", open)
	}
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{}) // the key is free
}

// recoverBenchDir is a data directory with one table file of 1 000 rows and a
// log of 1 000 records after it — 500 single-row inserts and 500 updates —
// over a table with a primary key and a secondary index.
func recoverBenchDir(b *testing.B) *mapFS {
	b.Helper()
	fs := newMapFS()
	db := NewDB(nil)
	if _, err := db.Recover(fs, "/d"); err != nil {
		b.Fatal(err)
	}
	exec := func(sql string) {
		if _, err := db.Exec(sql, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	exec("CREATE TABLE t (k INT PRIMARY KEY, v INT, note TEXT)")
	exec("CREATE INDEX t_v ON t (v)")
	var vals []string
	for i := 0; i < 1000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, 'row %d')", i, i%100, i))
	}
	exec("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	if err := db.Checkpoint(fs, "/d"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'new %d')", 1000+i, i%100, i))
		exec(fmt.Sprintf("UPDATE t SET v = v + 1 WHERE k = %d", i))
	}
	return fs
}

func BenchmarkRecover(b *testing.B) {
	fs := recoverBenchDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDB(nil).Recover(fs, "/d"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyRecord applies one record per operation to a replica table
// with a primary key and a secondary index: the record of an autocommit
// UPDATE — the end mark, the new version and the statement's history — plus
// an insert, so the table grows as it would under a write load.
func BenchmarkApplyRecord(b *testing.B) {
	db := NewDB(nil)
	for _, sql := range []string{"CREATE TABLE t (k INT PRIMARY KEY, v INT)", "CREATE INDEX t_v ON t (v)"} {
		if _, err := db.Exec(sql, ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	base := db.ClockNow() + 1
	row := func(k, v int) []sqlval.Value { return []sqlval.Value{sqlval.NewInt(int64(k)), sqlval.NewInt(int64(v))} }
	recs := make([][]byte, b.N)
	for i := range recs {
		ts := base + 3*uint64(i)
		entries := []redoEntry{{kind: walInsert, table: "t", id: RowID(i + 1), version: ts, proc: "app", stmt: int64(i), vals: row(i+1, i%100)}}
		if i > 0 {
			entries = append(entries,
				redoEntry{kind: walEnd, table: "t", id: RowID(i), version: ts - 3, end: ts + 1},
				redoEntry{kind: walInsert, table: "t", id: RowID(i), version: ts + 1, proc: "app", stmt: int64(i), vals: row(i, i%100+1)},
				redoEntry{kind: walStmt, table: "update", id: RowID(ts), version: ts, end: ts + 2, proc: "UPDATE t SET v = v + 1 WHERE k = ?", stmt: 1, vals: row(i, 0)[:1]})
		}
		recs[i] = encodeWALTxn(int64(i+1), entries)
	}
	a := db.NewApplier()
	b.ReportAllocs()
	b.ResetTimer()
	for i, rec := range recs {
		if _, err := a.ApplyRecord(uint64(i+1), rec); err != nil {
			b.Fatal(err)
		}
	}
}
