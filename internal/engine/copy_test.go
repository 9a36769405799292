package engine

import (
	"strings"
	"testing"
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
