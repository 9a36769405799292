package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// hookClock is a Clock that, once armed, runs fire inside its n-th Tick,
// after the inner clock has advanced.
type hookClock struct {
	Clock
	mu   sync.Mutex
	left int
	fire func()
}

func (c *hookClock) arm(n int, fire func()) {
	c.mu.Lock()
	c.left, c.fire = n, fire
	c.mu.Unlock()
}

func (c *hookClock) Tick() uint64 {
	ts := c.Clock.Tick()
	c.mu.Lock()
	var fire func()
	if c.left > 0 {
		if c.left--; c.left == 0 {
			fire = c.fire
		}
	}
	c.mu.Unlock()
	if fire != nil {
		fire()
	}
	return ts
}

// TestSnapshotDoesNotTear: a transfer's first write lands before a reader's
// snapshot tick, its second write and its commit inside that tick. The
// reader sees all of the transfer or none of it — never the debit alone.
// The commit waits for the reader's copy of the active set, so it runs on
// its own goroutine and the tick waits for it only so long.
func TestSnapshotDoesNotTear(t *testing.T) {
	clk := &hookClock{Clock: NewCounterClock()}
	db := NewDB(clk)
	mustExec(t, db, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)", ExecOptions{})
	mustExec(t, db, "INSERT INTO acct VALUES (1, 50), (2, 50)", ExecOptions{})
	w := db.NewSession()
	defer w.Close()
	sessExec(t, w, "BEGIN")
	sessExec(t, w, "UPDATE acct SET bal = bal - 1 WHERE id = 1")

	var werr error
	finished := make(chan struct{})
	// The reader's first tick is its Result.Start, the second its snapshot.
	clk.arm(2, func() {
		go func() {
			defer close(finished)
			if _, werr = w.Exec("UPDATE acct SET bal = bal + 1 WHERE id = 2", ExecOptions{}); werr == nil {
				_, werr = w.Exec("COMMIT", ExecOptions{})
			}
		}()
		select {
		case <-finished:
		case <-time.After(200 * time.Millisecond):
		}
	})
	got := rowsToStrings(mustExec(t, db, "SELECT SUM(bal) FROM acct", ExecOptions{}))
	<-finished
	if werr != nil {
		t.Fatal(werr)
	}
	if fmt.Sprint(got) != "[100]" {
		t.Fatalf("reader saw torn state: sum = %v", got)
	}
	if got := rowsToStrings(mustExec(t, db, "SELECT bal FROM acct ORDER BY id", ExecOptions{})); fmt.Sprint(got) != "[49 51]" {
		t.Fatalf("after the transfer: %v", got)
	}
}

// reorderedUpdate leaves an UPDATE of id 2 open in the returned session,
// with the open version of the row stored in front of the committed one: a
// rolled-back insert's hole is filled with the table's last version.
func reorderedUpdate(t *testing.T, db *DB) *Session {
	t.Helper()
	t0, t1 := db.NewSession(), db.NewSession()
	defer t0.Close()
	sessExec(t, t0, "BEGIN")
	sessExec(t, t0, "INSERT INTO acct VALUES (3, 0)")
	mustExec(t, db, "INSERT INTO acct VALUES (2, 50)", ExecOptions{})
	sessExec(t, t1, "BEGIN")
	sessExec(t, t1, "UPDATE acct SET bal = bal + 1 WHERE id = 2")
	sessExec(t, t0, "ROLLBACK")
	tbl, _ := db.lookupTable("acct")
	if r := tbl.rows[0]; r.txnID != t1.txn.id || r.end != 0 {
		t.Fatalf("the open version is not stored first: %+v", r)
	}
	return t1
}

// TestWriteCutConflictsWithAnOpenEndMark: an UPDATE or DELETE of a row whose
// latest version a still-open transaction wrote is a serialization error,
// whichever of the row's versions is stored first; and the cut judges every
// version by the one active set it copied, so a commit after the copy
// changes nothing for the statement that took it.
func TestWriteCutConflictsWithAnOpenEndMark(t *testing.T) {
	for _, reorder := range []bool{false, true} {
		db := newTestDB(t, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
		var t1 *Session
		if reorder {
			t1 = reorderedUpdate(t, db)
		} else {
			mustExec(t, db, "INSERT INTO acct VALUES (2, 50)", ExecOptions{})
			t1 = db.NewSession()
			sessExec(t, t1, "BEGIN")
			sessExec(t, t1, "UPDATE acct SET bal = bal + 1 WHERE id = 2")
		}
		for _, sql := range []string{"UPDATE acct SET bal = bal + 1 WHERE id = 2", "DELETE FROM acct WHERE id = 2"} {
			if _, err := db.Exec(sql, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "could not serialize") {
				t.Fatalf("reordered=%v: %s beside an open update: %v", reorder, sql, err)
			}
		}

		tbl, _ := db.lookupTable("acct")
		cut := db.writeCut(0)
		sessExec(t, t1, "COMMIT")
		var shown []string
		for _, r := range tbl.rows {
			if cut.visible(r) {
				shown = append(shown, fmt.Sprintf("%s end=%v", r.vals[1], r.end != 0))
			}
		}
		if fmt.Sprint(shown) != "[50 end=true]" {
			t.Fatalf("reordered=%v: a cut taken before the commit shows %v, want the end-marked old version alone", reorder, shown)
		}
	}
}

// TestWriteCutMatchesACommittedVersion: once the transaction that wrote a
// row's newest version has committed, an UPDATE matches that version, even
// stored in front of the old one, and builds on it.
func TestWriteCutMatchesACommittedVersion(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	t1 := reorderedUpdate(t, db)
	sessExec(t, t1, "COMMIT")
	t1.Close()
	if res := mustExec(t, db, "UPDATE acct SET bal = bal + 1 WHERE id = 2", ExecOptions{}); res.RowsAffected != 1 {
		t.Fatalf("UPDATE after the commit matched %d rows", res.RowsAffected)
	}
	if got := rowsToStrings(mustExec(t, db, "SELECT bal FROM acct WHERE id = 2", ExecOptions{})); fmt.Sprint(got) != "[52]" {
		t.Fatalf("balance = %v, want [52]", got)
	}
}

// TestKeyReleasedByAnOpenTransactionIsNotReused: a key an open transaction
// deleted or updated away stays its own until it ends. INSERT, COPY FROM and
// a key-changing UPDATE elsewhere are serialization errors, a checkpoint
// taken meanwhile loads back, the rollback gives the key back, and once the
// releaser commits the key is free.
func TestKeyReleasedByAnOpenTransactionIsNotReused(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 1), (2, 2), (4, 4)", ExecOptions{})
	fs := newMapFS()
	fs.WriteFile("/one.csv", []byte("1,9\n"))
	t1 := db.NewSession()
	defer t1.Close()
	sessExec(t, t1, "BEGIN")
	sessExec(t, t1, "DELETE FROM t WHERE id = 1")
	sessExec(t, t1, "UPDATE t SET id = 3 WHERE id = 2")
	for _, sql := range []string{
		"INSERT INTO t VALUES (1, 2)",
		"INSERT INTO t VALUES (2, 2)",
		"COPY t FROM '/one.csv'",
		"UPDATE t SET id = 1 WHERE id = 4",
	} {
		if _, err := db.Exec(sql, ExecOptions{FS: fs}); err == nil || !strings.Contains(err.Error(), "could not serialize") {
			t.Fatalf("%s while an open transaction holds the key: %v", sql, err)
		}
	}
	if got := rowsToStrings(mustExec(t, db, "SELECT v FROM t WHERE id = 1", ExecOptions{})); fmt.Sprint(got) != "[1]" {
		t.Fatalf("id 1 reads %v, want the one committed row", got)
	}
	if err := db.Checkpoint(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	if err := NewDB(nil).LoadDir(fs, "/d"); err != nil {
		t.Fatalf("a checkpoint taken beside the open delete does not load: %v", err)
	}
	sessExec(t, t1, "ROLLBACK")
	if got := rowsToStrings(mustExec(t, db, "SELECT id, v FROM t ORDER BY id", ExecOptions{})); fmt.Sprint(got) != "[1|1 2|2 4|4]" {
		t.Fatalf("after the rollback: %v", got)
	}

	sessExec(t, t1, "BEGIN")
	sessExec(t, t1, "DELETE FROM t WHERE id = 1")
	sessExec(t, t1, "INSERT INTO t VALUES (1, 7)") // the releaser may claim it back
	sessExec(t, t1, "DELETE FROM t WHERE id = 2")
	sessExec(t, t1, "COMMIT")
	// Both keys t1 released are free for a third session: its own end mark
	// on 1 stands beside t1's, and 2 carries t1's alone.
	t3 := db.NewSession()
	defer t3.Close()
	for _, sql := range []string{"BEGIN", "DELETE FROM t WHERE id = 1", "INSERT INTO t VALUES (1, 9)", "INSERT INTO t VALUES (2, 8)", "COMMIT"} {
		sessExec(t, t3, sql)
	}
	if got := rowsToStrings(mustExec(t, db, "SELECT id, v FROM t ORDER BY id", ExecOptions{})); fmt.Sprint(got) != "[1|9 2|8 4|4]" {
		t.Fatalf("after the commit: %v", got)
	}
}

// TestReenactListsCopyFrom: a COPY FROM is part of its transaction's
// history like the INSERT it runs as, listed with its recorded row count.
func TestReenactListsCopyFrom(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	fs := newMapFS()
	fs.WriteFile("/in.csv", []byte("1,10\n2,20\n"))
	s := db.NewSession()
	defer s.Close()
	for _, sql := range []string{"BEGIN", "COPY t FROM '/in.csv'", "UPDATE t SET b = b + 1 WHERE a = 1", "COMMIT"} {
		if _, err := s.Exec(sql, ExecOptions{FS: fs}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	res := mustExec(t, db, fmt.Sprintf("REENACT TRANSACTION %d", lastTxnID(t, db)), ExecOptions{})
	var got []string
	for _, r := range res.Rows {
		got = append(got, fmt.Sprintf("%s %s %s rows=%s recorded=%s", r[0], r[2], r[1], r[3], r[4]))
	}
	want := []string{
		"1 copy COPY t FROM '/in.csv' rows=2 recorded=2",
		"2 update UPDATE t SET b = (b + 1) WHERE (a = 1) rows=1 recorded=1",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("REENACT lists\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestCopyToReadsTheSelectSnapshot: COPY TO writes what SELECT * reads —
// under a session-level AS OF too — and reports the versions it read as its
// version set.
func TestCopyToReadsTheSelectSnapshot(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'one'), (2, 'two')", ExecOptions{})
	past := db.ClockNow()
	mustExec(t, db, "UPDATE t SET b = 'TWO' WHERE a = 2", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (3, 'three')", ExecOptions{})
	fs := newMapFS()
	for _, at := range []uint64{0, past} {
		sel := mustExec(t, db, "SELECT * FROM t", ExecOptions{AsOf: at, WithLineage: true})
		var want strings.Builder
		for _, r := range sel.Rows {
			fmt.Fprintf(&want, "%s,%s\n", r[0], r[1])
		}
		res := mustExec(t, db, "COPY t TO '/out.csv'", ExecOptions{AsOf: at, FS: fs, WithLineage: true})
		if out, _ := fs.ReadFile("/out.csv"); string(out) != want.String() {
			t.Fatalf("AS OF %d: COPY TO wrote %q, SELECT * reads %q", at, out, want.String())
		}
		refs := sel.TupleValues.Refs()
		if res.RowsAffected != len(sel.Rows) || fmt.Sprint(res.TupleValues.Refs()) != fmt.Sprint(refs) ||
			res.Rows != nil || res.Columns != nil || res.Lineage != nil || len(refs) != len(sel.Rows) {
			t.Fatalf("AS OF %d: COPY TO result %+v, SELECT * read %v", at, res, refs)
		}
	}
}
