package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"ldv/internal/sqlval"
)

// The sync rule against an oracle. A table that Checkpoint skips, or LoadDir
// keeps, is claimed to equal its files — its table file, amended by its
// stamps file if it has one; the oracle decodes the two into a fresh
// database, encodes that table and the one in memory, and compares the
// bytes, prov_usedby included. The workload interleaves everything that changes what a
// table file carries — DML, rolled-back and still-open transactions, lineage
// reads (SELECT, SELECT PROVENANCE, COPY TO) from this goroutine and from a
// concurrent one, COPY FROM, index DDL, VACUUM — with checkpoints, warm
// restarts (LoadDir into the same database) and crashes (Recover into a new
// one), so one missing touch() or stamped() shows as a skipped table that
// differs from its files, and a lost commit as a recovered table that differs
// from the one that crashed.

// recFS is a mapFS that remembers which paths were written, in order, and can
// die partway through a checkpoint: with failAfter set, the failAfter-th
// table or stamps file written from then on, and every one after it, is
// refused.
type recFS struct {
	*mapFS
	mu        sync.Mutex
	wrote     []string
	failAfter int
}

func newRecFS() *recFS { return &recFS{mapFS: newMapFS()} }

func (r *recFS) WriteFile(p string, data []byte) error {
	r.mu.Lock()
	if r.failAfter > 0 && (strings.HasSuffix(p, ".tbl") || strings.HasSuffix(p, ".stamps")) {
		if r.failAfter == 1 {
			r.mu.Unlock()
			return fmt.Errorf("recFS: the machine died before %s was written", p)
		}
		r.failAfter--
	}
	r.wrote = append(r.wrote, p)
	r.mu.Unlock()
	return r.mapFS.WriteFile(p, data)
}

// written returns the paths written since the last call, in order, and
// forgets them.
func (r *recFS) written() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.wrote
	r.wrote = nil
	return w
}

const syncDir = "/d"

type syncRun struct {
	t    *testing.T
	rng  *rand.Rand
	fs   *recFS
	db   *DB
	open []*Session // sessions holding an open transaction
	next int        // next unused id
	idx  []string   // live index names

	skipped, kept int // tables checkpoints did not write, loads did not decode
	stampsOnly    int // tables checkpoints wrote the stamps file of and not the table file

	// The concurrent lineage reader runs one statement per kick; pending
	// counts the kicks it has not finished.
	kicks   chan *DB
	pending sync.WaitGroup
}

var syncTables = []string{"t0", "t1", "t2"}

func (w *syncRun) table() string { return syncTables[w.rng.Intn(len(syncTables))] }

// exec runs one statement; the errors a random interleaving is entitled to
// (a write-write conflict with an open transaction, a key an open
// transaction holds) are not failures.
func (w *syncRun) exec(s *Session, sql string, opts ExecOptions) {
	w.t.Helper()
	if _, err := s.Exec(sql, opts); err != nil &&
		!strings.Contains(err.Error(), "could not serialize") &&
		!strings.Contains(err.Error(), "duplicate primary key") &&
		!strings.Contains(err.Error(), "rollback conflict") {
		w.t.Fatalf("Exec(%q): %v", sql, err)
	}
}

func (w *syncRun) dml(s *Session) {
	tbl := w.table()
	proc := ExecOptions{Proc: []string{"", "app", "p/2"}[w.rng.Intn(3)], WithLineage: w.rng.Intn(4) == 0}
	switch w.rng.Intn(4) {
	case 0, 1:
		w.next++
		w.exec(s, fmt.Sprintf("INSERT INTO %s VALUES (%d, %d, 'v%d')", tbl, w.next, w.rng.Intn(50), w.rng.Intn(9)), proc)
	case 2:
		set := "a = a + 1"
		if w.rng.Intn(4) == 0 {
			// Mostly a duplicate key: the statement fails after its lineage stamp.
			set, proc.WithLineage = fmt.Sprintf("id = %d", 1+w.rng.Intn(w.next+1)), true
		}
		w.exec(s, fmt.Sprintf("UPDATE %s SET %s WHERE id = %d", tbl, set, 1+w.rng.Intn(w.next+1)), proc)
	default:
		w.exec(s, fmt.Sprintf("DELETE FROM %s WHERE id = %d", tbl, 1+w.rng.Intn(w.next+1)), proc)
	}
}

// closeTxns ends every open transaction, committing or rolling back.
func (w *syncRun) closeTxns() {
	for _, s := range w.open {
		w.exec(s, []string{"COMMIT", "ROLLBACK"}[w.rng.Intn(2)], ExecOptions{})
		s.Close()
	}
	w.open = nil
}

// checkSynced is the oracle. Every table that says it equals its files (the
// ones the next checkpoint would skip and the next load would keep) is
// decoded from them — the table file and the stamps file it names — into a
// fresh database, and encoded again there and in memory: the two must be the
// same bytes.
func (w *syncRun) checkSynced(after string) {
	w.t.Helper()
	w.pending.Wait() // the reader's stamps are in, and counted
	for _, t := range w.db.tableList() {
		im := t.current()
		if im == nil {
			continue
		}
		files := newMapFS()
		for _, ext := range []string{".tbl", ".stamps"} {
			data, err := w.fs.ReadFile(im.dir + "/" + t.Name + ext)
			if err == nil {
				files.files["/f/"+t.Name+ext] = data
			} else if ext == ".tbl" || im.hasStamps {
				w.t.Fatalf("after %s: %s: %v", after, t.Name, err)
			}
		}
		if stamps, ok := files.files["/f/"+t.Name+".stamps"]; ok {
			st, err := decodeStamps(stamps)
			if err != nil {
				w.t.Fatalf("after %s: %s: %v", after, t.Name, err)
			}
			if names := st.tbl == im.digest; names != im.hasStamps || names && st.digest != im.stampsDigest {
				w.t.Fatalf("after %s: table %s: its stamps file names its table file = %v, its image has one = %v", after, t.Name, names, im.hasStamps)
			}
		}
		fresh := NewDB(nil)
		if err := fresh.LoadDir(files, "/f"); err != nil {
			w.t.Fatalf("after %s: %s: %v", after, t.Name, err)
		}
		ft, err := fresh.lookupTable(t.Name)
		if err != nil {
			w.t.Fatal(err)
		}
		ft.mu.RLock()
		onDisk, _ := encodeTable(ft, fresh.takeSnapshot(0), fresh.vacuumHorizon.Load())
		ft.mu.RUnlock()
		t.mu.RLock()
		inMemory, _ := encodeTable(t, w.db.takeSnapshot(0), w.db.vacuumHorizon.Load())
		t.mu.RUnlock()
		if !bytes.Equal(onDisk, inMemory) {
			w.t.Fatalf("after %s: table %s says it equals its files and does not", after, t.Name)
		}
	}
}

// checkpoint checkpoints and counts the tables it skipped and those it wrote
// only the stamps file of.
func (w *syncRun) checkpoint() {
	w.t.Helper()
	w.fs.written()
	if err := w.db.Checkpoint(w.fs, syncDir); err != nil {
		w.t.Fatal(err)
	}
	wrote := map[string]string{}
	for _, p := range w.fs.written() {
		name := p[strings.LastIndex(p, "/")+1:]
		if tn, ok := strings.CutSuffix(name, ".tbl"); ok {
			wrote[tn] = ".tbl"
		} else if tn, ok := strings.CutSuffix(name, ".stamps"); ok && wrote[tn] == "" {
			wrote[tn] = ".stamps"
		}
	}
	for _, tn := range w.db.TableNames() {
		switch wrote[tn] {
		case "":
			w.skipped++
		case ".stamps":
			w.stampsOnly++
		}
	}
}

// visibleState is what a crash must preserve: the committed rows of every
// table, with the attributes the log carries, and the retention horizon.
func visibleState(t *testing.T, db *DB) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "horizon %d\n", db.VacuumHorizon())
	for _, name := range db.TableNames() {
		res, err := db.Exec("SELECT id, a, b, prov_rowid, prov_v, prov_p FROM "+name+" ORDER BY prov_rowid", ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		tbl, _ := db.lookupTable(name)
		var ixs []string
		for _, ix := range tbl.indexList() {
			ixs = append(ixs, ix.name)
		}
		fmt.Fprintf(&sb, "%s %v\n%s\n", name, ixs, strings.Join(rowsToStrings(res), "\n"))
	}
	return sb.String()
}

func runSyncWorkload(t *testing.T, seed int64) (skipped, stampsOnly, kept int) {
	w := &syncRun{t: t, rng: rand.New(rand.NewSource(seed)), fs: newRecFS(), db: NewDB(nil), kicks: make(chan *DB)}
	if _, err := w.db.Recover(w.fs, syncDir); err != nil {
		t.Fatal(err)
	}
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		rng := rand.New(rand.NewSource(seed + 1000))
		for db := range w.kicks {
			sql := fmt.Sprintf("SELECT id FROM %s WHERE a >= %d", syncTables[rng.Intn(len(syncTables))], rng.Intn(40))
			s := db.NewSession()
			if _, err := s.Exec(sql, ExecOptions{Proc: "reader", WithLineage: true}); err != nil {
				t.Errorf("reader: %v", err)
			}
			s.Close()
			w.pending.Done()
		}
	}()
	defer func() {
		close(w.kicks)
		reader.Wait()
	}()

	auto := func() *Session { return w.db.defaultSession() }
	w.exec(auto(), "CREATE TABLE t0 (id INT PRIMARY KEY, a INT, b TEXT)", ExecOptions{})
	w.exec(auto(), "CREATE TABLE t1 (id INT, a INT, b TEXT)", ExecOptions{})
	w.exec(auto(), "CREATE TABLE t2 (id INT PRIMARY KEY, a INT, b TEXT)", ExecOptions{})
	for i := 0; i < 12; i++ {
		w.dml(auto())
	}
	for step := 0; step < 120; step++ {
		if w.rng.Intn(2) == 0 {
			w.pending.Add(1)
			w.kicks <- w.db // runs beside whatever this step does
		}
		switch op := w.rng.Intn(20); {
		case op < 6:
			w.dml(auto())
		case op < 8 && len(w.open) < 2: // a transaction left open
			s := w.db.NewSession()
			w.exec(s, "BEGIN", ExecOptions{})
			w.dml(s)
			w.open = append(w.open, s)
		case op < 9 && len(w.open) > 0: // more work in an open one
			w.dml(w.open[w.rng.Intn(len(w.open))])
		case op < 10 && len(w.open) > 0:
			i := w.rng.Intn(len(w.open))
			w.exec(w.open[i], []string{"COMMIT", "ROLLBACK"}[w.rng.Intn(2)], ExecOptions{})
			w.open[i].Close()
			w.open = append(w.open[:i], w.open[i+1:]...)
		case op < 11:
			w.exec(auto(), "SELECT PROVENANCE id, a FROM "+w.table()+" WHERE a < 25", ExecOptions{Proc: "q"})
		case op < 12:
			w.exec(auto(), "COPY "+w.table()+" TO '/out.csv'", ExecOptions{FS: w.fs, WithLineage: w.rng.Intn(2) == 0})
		case op < 13:
			w.next += 2
			w.fs.WriteFile("/in.csv", []byte(fmt.Sprintf("%d,1,x\n%d,2,\\N\n", w.next-1, w.next)))
			w.exec(auto(), "COPY "+w.table()+" FROM '/in.csv'", ExecOptions{FS: w.fs, Proc: "copy"})
		case op < 14 && w.rng.Intn(3) == 0: // a bulk restore into a live table, which is not logged: durable by the checkpoint after it
			w.next++
			rows := []RestoredRow{{ID: w.db.newRowID(), Version: w.db.clock.Tick(), Proc: "restore",
				Vals: []sqlval.Value{sqlval.NewInt(int64(w.next)), sqlval.NewInt(7), sqlval.NewString("r")}}}
			if err := w.db.RestoreRows(w.table(), 1, func(r *RestoredRow) (bool, error) {
				if len(rows) == 0 {
					return false, nil
				}
				*r, rows = rows[0], rows[1:]
				return true, nil
			}); err != nil {
				t.Fatal(err)
			}
			w.checkpoint()
		case op < 14:
			if len(w.idx) > 0 && w.rng.Intn(2) == 0 {
				w.exec(auto(), "DROP INDEX "+w.idx[0], ExecOptions{})
				w.idx = w.idx[1:]
			} else {
				name := fmt.Sprintf("ix%d", step)
				w.exec(auto(), fmt.Sprintf("CREATE INDEX %s ON %s (a)", name, w.table()), ExecOptions{})
				w.idx = append(w.idx, name)
			}
		case op < 15:
			w.exec(auto(), []string{"VACUUM", "VACUUM RETAIN 5"}[w.rng.Intn(2)], ExecOptions{})
		case op < 16 && w.rng.Intn(2) == 0: // a second directory: what is there is another image
			w.pending.Wait()
			if err := w.db.Checkpoint(w.fs, "/backup"); err != nil {
				t.Fatal(err)
			}
			backup := NewDB(nil)
			if err := backup.LoadDir(w.fs.mapFS, "/backup"); err != nil {
				t.Fatal(err)
			}
			if want, got := visibleState(t, w.db), visibleState(t, backup); got != want {
				t.Fatalf("step %d: the backup directory is stale\n--- database\n%s--- backup\n%s", step, want, got)
			}
			w.checkpoint() // the log was cut for the backup: bring the data directory past the cut too
		case op < 18:
			w.checkpoint()
		case op < 19: // warm restart: the server stops, and starts over its own directory
			w.pending.Wait()
			w.closeTxns()
			w.checkpoint()
			if w.rng.Intn(2) == 0 { // stamps the stop did not see: the file wins
				w.exec(auto(), "SELECT id FROM "+w.table(), ExecOptions{WithLineage: true})
			}
			before := map[*Table]bool{}
			for _, tbl := range w.db.tableList() {
				before[tbl] = true
			}
			if err := w.db.LoadDir(w.fs, syncDir); err != nil {
				t.Fatal(err)
			}
			for _, tbl := range w.db.tableList() {
				if before[tbl] {
					w.kept++
				}
			}
		default: // crash, half the time partway through a checkpoint: open transactions die with the process
			w.pending.Wait()
			want := visibleState(t, w.db)
			if w.rng.Intn(2) == 0 {
				w.fs.failAfter = 1 + w.rng.Intn(len(syncTables))
				_ = w.db.Checkpoint(w.fs, syncDir) // fails, unless it skipped enough tables to finish
				w.fs.failAfter = 0
			}
			for _, s := range w.open {
				s.Close()
			}
			w.open = nil
			w.db = NewDB(nil)
			if _, err := w.db.Recover(w.fs, syncDir); err != nil {
				t.Fatal(err)
			}
			if got := visibleState(t, w.db); got != want {
				t.Fatalf("step %d: recovered state differs\n--- before the crash\n%s--- recovered\n%s", step, want, got)
			}
			w.checkpoint() // skips what the log's tail did not touch
		}
		w.checkSynced(fmt.Sprint("step ", step))
	}
	// What is in the directory at the end is the database.
	w.pending.Wait()
	w.closeTxns()
	w.checkpoint()
	w.checkSynced("the last checkpoint")
	fresh := NewDB(nil)
	if err := fresh.LoadDir(w.fs.mapFS, syncDir); err != nil {
		t.Fatal(err)
	}
	if want, got := dumpDB(w.db), dumpDB(fresh); got != want {
		t.Fatalf("the directory does not hold the database\n--- in memory\n%s\n--- loaded\n%s", want, got)
	}
	return w.skipped, w.stampsOnly, w.kept
}

func TestSyncRuleAgainstOracle(t *testing.T) {
	var skipped, stampsOnly, kept int
	for seed := int64(0); seed < 40; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			s, so, k := runSyncWorkload(t, seed)
			skipped, stampsOnly, kept = skipped+s, stampsOnly+so, kept+k
		})
	}
	t.Logf("%d tables skipped by checkpoints, %d written as stamps files alone, %d kept by loads", skipped, stampsOnly, kept)
	if skipped < 16 || stampsOnly < 16 || kept < 16 {
		t.Errorf("the workloads hardly exercise the rule")
	}
}

// TestEveryMutatorTouches pins the other half of the rule one operation at a
// time: whatever changes a byte of a table's file other than a prov_usedby
// stamp moves its mutation counter — also where another touch or the
// whole-image condition would cover for a missing one today (a rollback, a
// prune under a horizon that already moved) — whatever changes a stamp moves
// its stamps counter, and what changes neither leaves a synced table synced.
// A lineage read moves the stamps counter alone: a checkpoint after it
// writes the stamps file, not the table file.
func TestEveryMutatorTouches(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (id INT PRIMARY KEY, a INT)")
	fs := newMapFS()
	tbl, _ := db.lookupTable("t")
	s := db.NewSession()
	defer s.Close()
	run := func(sess *Session, opts ExecOptions) func(string) func() {
		return func(sql string) func() {
			return func() {
				t.Helper()
				if _, err := sess.Exec(sql, opts); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
		}
	}
	auto := run(db.defaultSession(), ExecOptions{FS: fs})
	lin := run(db.defaultSession(), ExecOptions{FS: fs, WithLineage: true})
	txn := run(s, ExecOptions{})
	for _, step := range []struct {
		name            string
		do              func()
		touches, stamps bool
	}{
		{"insert", auto("INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4), (10, 10), (11, 11)"), true, false},
		{"update", auto("UPDATE t SET a = 10 WHERE id = 1"), true, false},
		{"delete", auto("DELETE FROM t WHERE id = 2"), true, false},
		{"select", auto("SELECT * FROM t"), false, false},
		{"explain analyze", auto("EXPLAIN ANALYZE SELECT * FROM t"), false, false},
		{"select with lineage", lin("SELECT id FROM t WHERE id = 3"), false, true},
		{"select provenance", auto("SELECT PROVENANCE id FROM t"), false, true},
		{"copy to", auto("COPY t TO '/out.csv'"), false, false},
		{"copy to with lineage", lin("COPY t TO '/out.csv'"), false, true},
		{"update with lineage", lin("UPDATE t SET a = 12 WHERE id = 1"), true, true},
		// A DELETE's read set is the versions it ends: they keep their stamp.
		{"delete with lineage", lin("DELETE FROM t WHERE id = 10"), true, true},
		{"delete with a lineage subquery", lin("DELETE FROM t WHERE id IN (SELECT id FROM t WHERE a = 11)"), true, true},
		{"copy from", func() { fs.WriteFile("/in.csv", []byte("9,9\n")); auto("COPY t FROM '/in.csv'")() }, true, false},
		{"create index", auto("CREATE INDEX t_a ON t (a)"), true, false},
		{"drop index", auto("DROP INDEX t_a"), true, false},
		{"begin", txn("BEGIN"), false, false},
		{"insert in a transaction", txn("INSERT INTO t VALUES (5, 5)"), true, false},
		{"update in a transaction", txn("UPDATE t SET a = 30 WHERE id = 3"), true, false},
		{"delete in a transaction", txn("DELETE FROM t WHERE id = 4"), true, false},
		{"rollback of all three", txn("ROLLBACK"), true, false},
		{"begin again", txn("BEGIN"), false, false},
		{"delete again", txn("DELETE FROM t WHERE id = 4"), true, false},
		{"rollback of the delete alone", txn("ROLLBACK"), true, false},
		{"begin once more", txn("BEGIN"), false, false},
		{"insert again", txn("INSERT INTO t VALUES (5, 5)"), true, false},
		{"rollback of the insert alone", txn("ROLLBACK"), true, false},
		{"a statement that undoes itself", func() {
			if _, err := db.Exec("INSERT INTO t VALUES (6, 6), (1, 1)", ExecOptions{}); err == nil {
				t.Fatal("duplicate key accepted")
			}
		}, true, false},
		{"vacuum that moves the horizon", auto("VACUUM"), true, false},
		{"vacuum that moves nothing", func() {
			if _, err := db.VacuumTo(db.VacuumHorizon()); err != nil {
				t.Fatal(err)
			}
		}, false, false},
		{"prune under a horizon that had already moved", func() {
			auto("DELETE FROM t WHERE id = 3")()
			db.advanceHorizon(db.ClockNow())
			before := tbl.mutations.Load()
			if db.pruneVersions(db.VacuumHorizon()) != 1 || tbl.mutations.Load() == before {
				t.Error("pruneVersions removed a version without touching the table")
			}
		}, true, false},
		{"insert direct", func() {
			if _, err := db.InsertRowDirect("t", []sqlval.Value{sqlval.NewInt(7), sqlval.NewInt(7)}); err != nil {
				t.Fatal(err)
			}
		}, true, false},
		{"restore rows", func() {
			done := false
			if err := db.RestoreRows("t", 1, func(r *RestoredRow) (bool, error) {
				*r = RestoredRow{ID: 999, Version: 1, Vals: []sqlval.Value{sqlval.NewInt(8), sqlval.NewInt(8)}}
				done = !done
				return done, nil
			}); err != nil {
				t.Fatal(err)
			}
		}, true, false},
	} {
		if s.txn == nil { // an open transaction's versions keep the table from syncing at all
			if err := db.Checkpoint(fs, "/d"); err != nil {
				t.Fatal(err)
			}
			if tbl.current() == nil {
				t.Fatalf("before %s: the table is not synced after a checkpoint", step.name)
			}
		}
		before, stampsBefore := tbl.mutations.Load(), tbl.stamps.Load()
		step.do()
		if moved := tbl.mutations.Load() != before; moved != step.touches {
			t.Errorf("%s: mutation counter moved = %v, want %v", step.name, moved, step.touches)
		}
		if moved := tbl.stamps.Load() != stampsBefore; moved != step.stamps {
			t.Errorf("%s: stamps counter moved = %v, want %v", step.name, moved, step.stamps)
		}
	}
}
