package engine

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

// The golden table file pins the on-disk format: it was written by the row-
// at-a-time codec (the commit before the bulk loader replaced it) and must
// load and re-encode byte for byte under every later codec. Regenerate it
// only for a deliberate format change.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.tbl from goldenDB, testdata/golden.stamps from goldenStampsDir and testdata/all_kinds.walrec from walGoldenEntries")

const goldenTablePath = "testdata/golden.tbl"

// goldenDB is a deterministic table touching everything the file format
// carries: every kind, NULLs, empty and multi-byte text, a primary key,
// hash and ordered indexes, prov_p / prov_usedby, dead versions kept by a
// vacuum horizon.
func goldenDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB(nil)
	exec := func(sql string, opts ExecOptions) {
		t.Helper()
		if _, err := db.Exec(sql, opts); err != nil {
			t.Fatalf("Exec(%q): %v", sql, err)
		}
	}
	exec("CREATE TABLE golden (id INTEGER PRIMARY KEY, n INTEGER, f FLOAT, s TEXT, b BOOLEAN, d DATE)", ExecOptions{})
	exec("CREATE INDEX golden_n ON golden (n) USING ordered", ExecOptions{})
	exec("CREATE INDEX golden_s ON golden (s)", ExecOptions{})
	exec("INSERT INTO golden VALUES (1, -7, 1.5, 'one', TRUE, DATE '2015-04-13')", ExecOptions{Proc: "loader"})
	exec("INSERT INTO golden VALUES (2, NULL, NULL, NULL, NULL, NULL)", ExecOptions{})
	exec("INSERT INTO golden VALUES (3, 9007199254740993, -0.25, '', FALSE, DATE '1969-12-31')", ExecOptions{Proc: "loader"})
	exec("INSERT INTO golden VALUES (4, 0, 1000000.0, 'naïve, \"quoted\" 表\nline', TRUE, DATE '2038-01-19')", ExecOptions{Proc: "p/2"})
	exec("INSERT INTO golden VALUES (5, 5, 5, 'five', FALSE, DATE '2000-02-29')", ExecOptions{})
	exec("UPDATE golden SET s = 'uno' WHERE id = 1", ExecOptions{Proc: "updater"})
	exec("DELETE FROM golden WHERE id = 5", ExecOptions{Proc: "updater"})
	exec("VACUUM", ExecOptions{}) // drops both dead versions, fixes a horizon
	exec("UPDATE golden SET n = n + 1 WHERE id = 4", ExecOptions{Proc: "updater"})
	exec("UPDATE golden SET f = 2.5 WHERE id = 1", ExecOptions{})
	exec("DELETE FROM golden WHERE id = 2", ExecOptions{})
	exec("SELECT id FROM golden WHERE id = 3", ExecOptions{Proc: "reader", WithLineage: true}) // stamps prov_usedby
	return db
}

func goldenBytes(t testing.TB) []byte {
	t.Helper()
	fs := newMapFS()
	if err := goldenDB(t).Checkpoint(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	return fs.files["/d/golden.tbl"]
}

func TestGoldenTableFile(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTablePath, goldenBytes(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenTablePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenBytes(t); !bytes.Equal(got, want) {
		t.Fatalf("checkpoint of goldenDB differs from %s (%d vs %d bytes): the file format changed", goldenTablePath, len(got), len(want))
	}
	fs := newMapFS()
	fs.files["/d/golden.tbl"] = want
	db := NewDB(nil)
	if err := db.LoadDir(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	out := newMapFS()
	if err := db.Checkpoint(out, "/d"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.files["/d/golden.tbl"], want) {
		t.Fatal("golden table file does not re-encode byte for byte after LoadDir")
	}
}
