package engine

import (
	"fmt"
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

// TestCopyRunsWhereAFilesystemIsGiven: COPY is an ordinary statement of the
// execute entry — counted, fingerprinted, transactional — that reads and
// writes through ExecOptions.FS; an in-process caller that gives none gets an
// error that says so, not a missing file.
func TestCopyRunsWhereAFilesystemIsGiven(t *testing.T) {
	db := NewDB(nil)
	if _, err := db.Exec("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("COPY t FROM '/in.csv'", ExecOptions{}); err == nil || !strings.Contains(err.Error(), "filesystem") {
		t.Fatalf("COPY without a filesystem: %v", err)
	}
	fs := newMapFS()
	fs.WriteFile("/in.csv", []byte("1,one\n2,\\N\n"))
	res, err := db.Exec("COPY t FROM '/in.csv'", ExecOptions{FS: fs, Proc: "loader"})
	if err != nil || res.RowsAffected != 2 || len(res.WrittenRefs) != 2 || res.StmtID == 0 || res.End <= res.Start || res.Fingerprint == "" {
		t.Fatalf("COPY FROM: %+v, %v", res, err)
	}
	// A failed load leaves nothing behind: record 2 repeats a key.
	fs.WriteFile("/dup.csv", []byte("3,three\n1,again\n"))
	if _, err := db.Exec("COPY t FROM '/dup.csv'", ExecOptions{FS: fs}); err == nil {
		t.Fatal("COPY FROM with a duplicate key succeeded")
	}
	res, err = db.Exec("COPY t TO '/out.csv'", ExecOptions{FS: fs, WithLineage: true})
	if err != nil || res.RowsAffected != 2 || res.TupleValues.Len() != 2 {
		t.Fatalf("COPY TO: %+v, %v", res, err)
	}
	if out, _ := fs.ReadFile("/out.csv"); string(out) != "1,one\n2,\\N\n" {
		t.Fatalf("COPY TO wrote %q", out)
	}
}

// TestCopyKeepsTheTextBackslashN: NULL is an unquoted \N, so COPY TO quotes a
// TEXT value that is \N, and COPY FROM reads a quoted \N as that text — the
// value survives the round trip beside a NULL.
func TestCopyKeepsTheTextBackslashN(t *testing.T) {
	db := NewDB(nil)
	for _, sql := range []string{"CREATE TABLE t (a INT PRIMARY KEY, b TEXT)", "CREATE TABLE u (a INT PRIMARY KEY, b TEXT)"} {
		if _, err := db.Exec(sql, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range []sqlval.Value{sqlval.NewString(`\N`), sqlval.Null, sqlval.NewString(`\\N`)} {
		if _, err := db.Exec("INSERT INTO t VALUES (?, ?)", ExecOptions{Params: []sqlval.Value{sqlval.NewInt(int64(i + 1)), v}}); err != nil {
			t.Fatal(err)
		}
	}
	fs := newMapFS()
	if _, err := db.Exec("COPY t TO '/out.csv'", ExecOptions{FS: fs}); err != nil {
		t.Fatal(err)
	}
	if out, _ := fs.ReadFile("/out.csv"); string(out) != "1,\"\\N\"\n2,\\N\n3,\\\\N\n" {
		t.Fatalf("COPY TO wrote %q", out)
	}
	if _, err := db.Exec("COPY u FROM '/out.csv'", ExecOptions{FS: fs}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT a, b FROM u ORDER BY a", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range res.Rows {
		got = append(got, fmt.Sprintf("%v %q null=%v", r[0], r[1].String(), r[1].IsNull()))
	}
	if want := []string{`1 "\\N" null=false`, `2 "NULL" null=true`, `3 "\\\\N" null=false`}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("COPY TO then COPY FROM loaded %q, want %q", got, want)
	}
}
