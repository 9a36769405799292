package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"path"
	"sort"
	"strings"
	"sync"
	"testing"

	"ldv/internal/sqlval"
)

// mapFS is a minimal in-memory FileSystem for tests, including the append
// and remove extensions so it can back a WAL. Safe for concurrent use (the
// group-commit tests flush from multiple goroutines).
type mapFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMapFS() *mapFS { return &mapFS{files: map[string][]byte{}} }

func (m *mapFS) WriteFile(p string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[p] = append([]byte(nil), data...)
	return nil
}

func (m *mapFS) AppendFile(p string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[p] = append(m.files[p], data...)
	return nil
}

func (m *mapFS) Remove(p string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[p]; !ok {
		return fmt.Errorf("file %s not found", p)
	}
	delete(m.files, p)
	return nil
}

func (m *mapFS) ReadFile(p string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.files[p]
	if !ok {
		return nil, fmt.Errorf("file %s not found", p)
	}
	return append([]byte(nil), d...), nil
}

func (m *mapFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var names []string
	for p := range m.files {
		if path.Dir(p) == dir {
			names = append(names, path.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *mapFS) MkdirAll(string) error { return nil }

// snapshotFiles returns a deep copy of the current file set — the "surviving
// disk" image crash tests recover from.
func (m *mapFS) snapshotFiles() map[string][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string][]byte, len(m.files))
	for p, d := range m.files {
		out[p] = append([]byte(nil), d...)
	}
	return out
}

func TestCheckpointLoadRoundTrip(t *testing.T) {
	db := newTestDB(t,
		"CREATE TABLE t (a INT PRIMARY KEY, b TEXT, c FLOAT, d DATE, e BOOLEAN)",
		"CREATE TABLE u (x INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'one', 1.5, DATE '2015-04-13', TRUE)", ExecOptions{Proc: "loader"})
	mustExec(t, db, "INSERT INTO t VALUES (2, NULL, NULL, NULL, FALSE)", ExecOptions{})
	mustExec(t, db, "INSERT INTO u VALUES (42)", ExecOptions{})
	mustExec(t, db, "UPDATE t SET b = 'uno' WHERE a = 1", ExecOptions{Proc: "updater"})

	fs := newMapFS()
	if err := db.Checkpoint(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	if len(fs.files) != 2 {
		t.Fatalf("files = %v", fs.files)
	}

	db2 := NewDB(nil)
	if err := db2.LoadDir(fs, "/data"); err != nil {
		t.Fatal(err)
	}
	r1 := mustExec(t, db, "SELECT a, b, c, d, e, prov_rowid, prov_v, prov_p FROM t ORDER BY a", ExecOptions{})
	r2 := mustExec(t, db2, "SELECT a, b, c, d, e, prov_rowid, prov_v, prov_p FROM t ORDER BY a", ExecOptions{})
	if strings.Join(rowsToStrings(r1), "\n") != strings.Join(rowsToStrings(r2), "\n") {
		t.Fatalf("round trip mismatch:\n%v\nvs\n%v", rowsToStrings(r1), rowsToStrings(r2))
	}

	// Row ids must not collide after load: new inserts continue past the max.
	res := mustExec(t, db2, "INSERT INTO u VALUES (43)", ExecOptions{})
	refs, _, _ := db2.ScanAll("u")
	seen := map[RowID]bool{}
	for _, r := range refs {
		if seen[r.Row] {
			t.Fatal("duplicate row id after load")
		}
		seen[r.Row] = true
	}
	_ = res
}

func TestLoadDirErrors(t *testing.T) {
	fs := newMapFS()
	fs.files["/data/bad.tbl"] = []byte("garbage")
	db := NewDB(nil)
	if err := db.LoadDir(fs, "/data"); err == nil {
		t.Error("bad table file must error")
	}
	fs2 := newMapFS()
	fs2.files["/data/readme.txt"] = []byte("not a table")
	db2 := NewDB(nil)
	if err := db2.LoadDir(fs2, "/data"); err != nil {
		t.Errorf("non-.tbl files must be ignored: %v", err)
	}
}

func TestCreateTableFromSchema(t *testing.T) {
	db := NewDB(nil)
	schema := Schema{Columns: []Column{{Name: "id", Type: 1, PrimaryKey: true}}}
	if err := db.CreateTableFromSchema("t", schema); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTableFromSchema("t", schema); err == nil {
		t.Error("duplicate must fail")
	}
}

// TestCheckpointLoadCheckpointByteIdentical is the persistence round-trip
// property: checkpointing a freshly loaded checkpoint reproduces it byte for
// byte, over randomized (seeded) schemas and workloads. Byte identity is
// stronger than semantic equality — it pins the encoding as canonical, so a
// load/checkpoint cycle can never silently grow or reorder state.
func TestCheckpointLoadCheckpointByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDB(nil)

		kinds := []string{"INT", "TEXT", "FLOAT", "BOOLEAN"}
		ntables := 1 + rng.Intn(3)
		for ti := 0; ti < ntables; ti++ {
			cols := []string{"id INT PRIMARY KEY"}
			ncols := 1 + rng.Intn(4)
			for ci := 0; ci < ncols; ci++ {
				cols = append(cols, fmt.Sprintf("c%d %s", ci, kinds[rng.Intn(len(kinds))]))
			}
			ddl := fmt.Sprintf("CREATE TABLE t%d (%s)", ti, strings.Join(cols, ", "))
			mustExec(t, db, ddl, ExecOptions{})
		}
		for _, name := range db.TableNames() {
			tbl, err := db.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			nrows := rng.Intn(25)
			for ri := 0; ri < nrows; ri++ {
				vals := make([]string, 0, len(tbl.Schema.Columns))
				for _, c := range tbl.Schema.Columns {
					if c.PrimaryKey {
						vals = append(vals, fmt.Sprint(ri))
						continue
					}
					switch c.Type {
					case sqlval.KindInt:
						vals = append(vals, fmt.Sprint(rng.Intn(1000)))
					case sqlval.KindString:
						vals = append(vals, fmt.Sprintf("'s%d'", rng.Intn(1000)))
					case sqlval.KindFloat:
						vals = append(vals, fmt.Sprintf("%d.%d", rng.Intn(100), rng.Intn(100)))
					case sqlval.KindBool:
						vals = append(vals, []string{"TRUE", "FALSE"}[rng.Intn(2)])
					default:
						vals = append(vals, "NULL")
					}
				}
				mustExec(t, db, fmt.Sprintf("INSERT INTO %s VALUES (%s)", name, strings.Join(vals, ", ")),
					ExecOptions{Proc: fmt.Sprintf("p%d", rng.Intn(3))})
			}
			// A few updates and deletes so superseded versions exist and the
			// checkpoint's visibility filtering is exercised.
			for i := 0; i < rng.Intn(5); i++ {
				mustExec(t, db, fmt.Sprintf("DELETE FROM %s WHERE id = %d", name, rng.Intn(25)), ExecOptions{})
			}
		}

		fs1 := newMapFS()
		if err := db.Checkpoint(fs1, "/d"); err != nil {
			t.Fatalf("seed %d: first checkpoint: %v", seed, err)
		}
		db2 := NewDB(nil)
		if err := db2.LoadDir(fs1, "/d"); err != nil {
			t.Fatalf("seed %d: load: %v", seed, err)
		}
		fs2 := newMapFS()
		if err := db2.Checkpoint(fs2, "/d"); err != nil {
			t.Fatalf("seed %d: second checkpoint: %v", seed, err)
		}

		a, b := fs1.snapshotFiles(), fs2.snapshotFiles()
		if len(a) != len(b) {
			t.Fatalf("seed %d: file sets differ: %d vs %d", seed, len(a), len(b))
		}
		for p, data := range a {
			if !bytes.Equal(data, b[p]) {
				t.Fatalf("seed %d: %s differs after load/checkpoint round trip", seed, p)
			}
		}
	}
}

// TestRowCountIsTheLiveCounter: Table.RowCount answers from the liveRows
// counter, which has to agree with a walk over the versions after everything
// that adds, ends, revives or removes one.
func TestRowCountIsTheLiveCounter(t *testing.T) {
	fs := newMapFS()
	db := NewDB(nil)
	if _, err := db.Recover(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	check := func(db *DB, after string) {
		t.Helper()
		tbl, err := db.lookupTable("t")
		if err != nil {
			t.Fatal(err)
		}
		walked := 0
		for _, r := range tbl.rows {
			if r.end == 0 {
				walked++
			}
		}
		meta, _ := db.Table("t")
		if tbl.RowCount() != walked || meta.Rows != walked {
			t.Errorf("after %s: RowCount = %d, DB.Table().Rows = %d, a walk finds %d live versions", after, tbl.RowCount(), meta.Rows, walked)
		}
	}
	s := db.NewSession()
	defer s.Close()
	for _, sql := range []string{
		"CREATE TABLE t (k INT PRIMARY KEY, v INT)",
		"INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)",
		"UPDATE t SET v = v + 1 WHERE k < 3",
		"DELETE FROM t WHERE k = 5",
		"BEGIN", "INSERT INTO t VALUES (6, 6)", "UPDATE t SET v = 0 WHERE k = 1", "DELETE FROM t WHERE k = 2", "ROLLBACK",
		"BEGIN", "DELETE FROM t WHERE k = 3", "COMMIT",
		"VACUUM",
	} {
		if _, err := s.Exec(sql, ExecOptions{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		check(db, sql)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1, 9)", ExecOptions{}); err == nil {
		t.Fatal("duplicate key accepted")
	}
	check(db, "a failed insert")
	if err := db.Checkpoint(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "UPDATE t SET v = 7 WHERE k = 4", ExecOptions{}) // recovered from the log
	loaded := NewDB(nil)
	if err := loaded.LoadDir(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	check(loaded, "LoadDir")
	recovered := NewDB(nil)
	if _, err := recovered.Recover(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	check(recovered, "Recover")
}

// TestCheckpointWritesInNameOrder: the order of a checkpoint's file writes is
// the tables' name order, not Go's map order — the Nth filesystem operation
// of a crash matrix, and the Nth write event of an audited server's trace,
// are the same from run to run.
func TestCheckpointWritesInNameOrder(t *testing.T) {
	db := NewDB(nil)
	var want []string
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("t%02d", (i*7)%12)
		mustExec(t, db, "CREATE TABLE "+name+" (k INT)", ExecOptions{})
		want = append(want, "/d/"+name+".tbl")
	}
	sort.Strings(want)
	fs := newRecFS()
	if err := db.Checkpoint(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	if got := fs.written(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("checkpoint wrote %v", got)
	}
}
