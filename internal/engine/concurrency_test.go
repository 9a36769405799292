package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

func sessExec(t *testing.T, s *Session, sql string) *Result {
	t.Helper()
	res, err := s.Exec(sql, ExecOptions{})
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// Two sessions hold open transactions at the same time — the acceptance
// criterion that the old global-transaction engine failed by construction.
func TestTwoSessionsOpenTransactions(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY)")
	s1, s2 := db.NewSession(), db.NewSession()
	defer s1.Close()
	defer s2.Close()

	sessExec(t, s1, "BEGIN")
	sessExec(t, s2, "BEGIN") // must not collide with s1's transaction
	if !s1.InTxn() || !s2.InTxn() {
		t.Fatal("both sessions must report open transactions")
	}
	sessExec(t, s1, "INSERT INTO t VALUES (1)")
	sessExec(t, s2, "INSERT INTO t VALUES (2)")

	// Neither session sees the other's uncommitted insert.
	if got := rowsToStrings(sessExec(t, s1, "SELECT a FROM t ORDER BY a")); len(got) != 1 || got[0] != "1" {
		t.Fatalf("s1 sees %v, want only its own row", got)
	}
	if got := rowsToStrings(sessExec(t, s2, "SELECT a FROM t ORDER BY a")); len(got) != 1 || got[0] != "2" {
		t.Fatalf("s2 sees %v, want only its own row", got)
	}

	sessExec(t, s1, "COMMIT")
	sessExec(t, s2, "COMMIT")
	got := rowsToStrings(sessExec(t, s1, "SELECT a FROM t ORDER BY a"))
	if len(got) != 2 || got[0] != "1" || got[1] != "2" {
		t.Fatalf("after both commits = %v", got)
	}
}

// A reader outside any transaction never sees uncommitted writes.
func TestNoDirtyReads(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
	writer, reader := db.NewSession(), db.NewSession()
	defer writer.Close()
	defer reader.Close()
	sessExec(t, writer, "INSERT INTO t VALUES (1, 'old')")

	sessExec(t, writer, "BEGIN")
	sessExec(t, writer, "UPDATE t SET b = 'new' WHERE a = 1")
	sessExec(t, writer, "INSERT INTO t VALUES (2, 'uncommitted')")

	got := rowsToStrings(sessExec(t, reader, "SELECT a, b FROM t ORDER BY a"))
	if len(got) != 1 || got[0] != "1|old" {
		t.Fatalf("reader saw dirty state %v", got)
	}

	sessExec(t, writer, "COMMIT")
	got = rowsToStrings(sessExec(t, reader, "SELECT a, b FROM t ORDER BY a"))
	if len(got) != 2 || got[0] != "1|new" || got[1] != "2|uncommitted" {
		t.Fatalf("reader after commit = %v", got)
	}
}

// A transaction's reads are repeatable: concurrent commits do not move its
// snapshot.
func TestSnapshotRepeatableRead(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	writer, reader := db.NewSession(), db.NewSession()
	defer writer.Close()
	defer reader.Close()
	sessExec(t, writer, "INSERT INTO t VALUES (1, 10)")

	sessExec(t, reader, "BEGIN")
	before := rowsToStrings(sessExec(t, reader, "SELECT b FROM t WHERE a = 1"))

	sessExec(t, writer, "UPDATE t SET b = 20 WHERE a = 1")
	sessExec(t, writer, "DELETE FROM t WHERE a = 1")

	after := rowsToStrings(sessExec(t, reader, "SELECT b FROM t WHERE a = 1"))
	if strings.Join(before, ",") != "10" || strings.Join(after, ",") != "10" {
		t.Fatalf("repeatable read violated: before=%v after=%v", before, after)
	}
	sessExec(t, reader, "COMMIT")

	// A fresh statement outside the transaction sees the committed deletes.
	if got := rowsToStrings(sessExec(t, reader, "SELECT b FROM t WHERE a = 1")); len(got) != 0 {
		t.Fatalf("after commit reader still sees %v", got)
	}
}

// First-updater-wins: a write touching a row already modified by a
// concurrent uncommitted transaction fails with a serialization error.
func TestWriteWriteConflict(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	s1, s2 := db.NewSession(), db.NewSession()
	defer s1.Close()
	defer s2.Close()
	sessExec(t, s1, "INSERT INTO t VALUES (1, 0)")

	sessExec(t, s1, "BEGIN")
	sessExec(t, s1, "UPDATE t SET b = 1 WHERE a = 1")

	_, err := s2.Exec("UPDATE t SET b = 2 WHERE a = 1", ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "could not serialize") {
		t.Fatalf("concurrent update of the same row: err = %v, want serialization error", err)
	}
	_, err = s2.Exec("DELETE FROM t WHERE a = 1", ExecOptions{})
	if err == nil || !strings.Contains(err.Error(), "could not serialize") {
		t.Fatalf("concurrent delete of a locked row: err = %v, want serialization error", err)
	}

	// Updates on rows the WHERE does not match are unaffected.
	sessExec(t, s2, "UPDATE t SET b = 3 WHERE a = 999")

	sessExec(t, s1, "ROLLBACK")
	// After the first writer rolls back, the row is writable again.
	sessExec(t, s2, "UPDATE t SET b = 2 WHERE a = 1")
	if got := rowsToStrings(sessExec(t, s2, "SELECT b FROM t WHERE a = 1")); got[0] != "2" {
		t.Fatalf("after rollback+update = %v", got)
	}
}

// Closing a session rolls back its open transaction.
func TestSessionCloseRollsBack(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY)")
	s := db.NewSession()
	sessExec(t, s, "BEGIN")
	sessExec(t, s, "INSERT INTO t VALUES (1)")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := rowsToStrings(mustExec(t, db, "SELECT a FROM t", ExecOptions{}))
	if len(got) != 0 {
		t.Fatalf("abandoned transaction leaked rows: %v", got)
	}
}

// A failed statement rolls back only its own writes; the enclosing
// transaction stays open with earlier statements intact.
func TestStatementAtomicityInsideTxn(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY)")
	s := db.NewSession()
	defer s.Close()
	sessExec(t, s, "BEGIN")
	sessExec(t, s, "INSERT INTO t VALUES (1)")
	// Second row of the same statement collides: the whole statement must
	// vanish, including its first row.
	if _, err := s.Exec("INSERT INTO t VALUES (2), (1)", ExecOptions{}); err == nil {
		t.Fatal("duplicate pk must fail")
	}
	if !s.InTxn() {
		t.Fatal("failed statement must not close the transaction")
	}
	sessExec(t, s, "COMMIT")
	got := rowsToStrings(mustExec(t, db, "SELECT a FROM t ORDER BY a", ExecOptions{}))
	if len(got) != 1 || got[0] != "1" {
		t.Fatalf("after partial-failure commit = %v", got)
	}
}

// DDL is rejected inside a transaction (no undo for catalog changes).
func TestDDLRejectedInTxn(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT)")
	s := db.NewSession()
	defer s.Close()
	sessExec(t, s, "BEGIN")
	if _, err := s.Exec("CREATE TABLE u (x INT)", ExecOptions{}); err == nil {
		t.Error("CREATE TABLE inside txn must fail")
	}
	if _, err := s.Exec("DROP TABLE t", ExecOptions{}); err == nil {
		t.Error("DROP TABLE inside txn must fail")
	}
	sessExec(t, s, "ROLLBACK")
}

// Concurrent money-transfer transactions against concurrent readers: every
// reader statement must observe the conserved invariant (the sum of all
// balances), i.e. never a torn transaction. Run with -race this also
// exercises the lock protocol.
func TestConcurrentTransfersKeepInvariant(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT)")
	mustExec(t, db, "INSERT INTO acct VALUES (1, 50), (2, 50)", ExecOptions{})

	const writers, readers, rounds = 4, 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds+readers*rounds)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < rounds; i++ {
				if _, err := s.Exec("BEGIN", ExecOptions{}); err != nil {
					errs <- err
					return
				}
				// Move 1 from acct 1 to acct 2 in two statements; a
				// serialization conflict aborts the attempt cleanly.
				_, err := s.Exec("UPDATE acct SET bal = bal - 1 WHERE id = 1", ExecOptions{})
				if err == nil {
					_, err = s.Exec("UPDATE acct SET bal = bal + 1 WHERE id = 2", ExecOptions{})
				}
				if err != nil {
					if !strings.Contains(err.Error(), "could not serialize") {
						errs <- err
						return
					}
					if _, rerr := s.Exec("ROLLBACK", ExecOptions{}); rerr != nil {
						errs <- rerr
						return
					}
					continue
				}
				if _, err := s.Exec("COMMIT", ExecOptions{}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < rounds; i++ {
				res, err := s.Exec("SELECT SUM(bal) FROM acct", ExecOptions{})
				if err != nil {
					errs <- err
					return
				}
				if got := rowsToStrings(res); len(got) != 1 || got[0] != "100" {
					errs <- fmt.Errorf("reader saw torn state: sum = %v", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if got := rowsToStrings(mustExec(t, db, "SELECT SUM(bal) FROM acct", ExecOptions{})); got[0] != "100" {
		t.Fatalf("final sum = %v", got)
	}
}

// Concurrent transactions claim and release the keys of a 4-key table: each
// round is one transaction of an INSERT, a DELETE, a key-changing UPDATE or
// an UPDATE of another column, committed or rolled back. A statement may
// fail only on the key rule or first-updater-wins, and no reader ever sees
// two rows with one key; at the end every live version holds its key alone.
func TestConcurrentKeyClaims(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0), (2, 0)", ExecOptions{})

	const writers, rounds = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			s, reader := db.NewSession(), db.NewSession()
			defer s.Close()
			defer reader.Close()
			exec := func(s *Session, sql string) (*Result, error) {
				res, err := s.Exec(sql, ExecOptions{})
				if err != nil && !strings.Contains(err.Error(), "duplicate primary key") && !strings.Contains(err.Error(), "could not serialize") {
					return nil, fmt.Errorf("%s: %w", sql, err)
				}
				return res, nil
			}
			for i := 0; i < rounds; i++ {
				k, k2 := 1+rng.Intn(4), 1+rng.Intn(4)
				stmt := []string{
					fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", k, w),
					fmt.Sprintf("DELETE FROM t WHERE id = %d", k),
					fmt.Sprintf("UPDATE t SET id = %d WHERE id = %d", k2, k),
					fmt.Sprintf("UPDATE t SET v = v + 1 WHERE id = %d", k),
				}[rng.Intn(4)]
				for _, sql := range []string{"BEGIN", stmt, []string{"COMMIT", "ROLLBACK"}[rng.Intn(2)]} {
					if _, err := exec(s, sql); err != nil {
						errs <- err
						return
					}
				}
				res, err := reader.Exec("SELECT id, COUNT(*) FROM t GROUP BY id HAVING COUNT(*) > 1", ExecOptions{})
				if err != nil {
					errs <- err
					return
				}
				if got := rowsToStrings(res); len(got) != 0 {
					errs <- fmt.Errorf("after %q: keys held twice: %v", stmt, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkDerived(t, "after the rounds", db)
}
