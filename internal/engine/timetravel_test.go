package engine

import (
	"fmt"
	"strings"
	"testing"
)

// asOfRows runs sql and joins the result rows for compact comparison.
func asOfRows(t *testing.T, db *DB, sql string) string {
	t.Helper()
	return strings.Join(rowsToStrings(mustExec(t, db, sql, ExecOptions{})), ";")
}

func TestAsOfVisibility(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT, v TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 'one')", ExecOptions{})
	past := db.ClockNow()
	mustExec(t, db, "UPDATE t SET v = 'uno' WHERE k = 1", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (2, 'two')", ExecOptions{})
	mustExec(t, db, "DELETE FROM t WHERE k = 1", ExecOptions{})

	if got := asOfRows(t, db, "SELECT k, v FROM t ORDER BY k"); got != "2|two" {
		t.Fatalf("head read = %q, want 2|two", got)
	}
	// At the past tick: the original value, no second row, no delete.
	q := fmt.Sprintf("SELECT k, v FROM t AS OF %d ORDER BY k", past)
	if got := asOfRows(t, db, q); got != "1|one" {
		t.Fatalf("AS OF %d = %q, want 1|one", past, got)
	}
	// The bound is an expression; the trailing position also parses.
	q = fmt.Sprintf("SELECT v FROM t WHERE k = 1 AS OF %d + 0", past)
	if got := asOfRows(t, db, q); got != "one" {
		t.Fatalf("AS OF expr = %q, want one", got)
	}
	// The frame-level bound (wire AsOf field) takes the same path.
	res := mustExec(t, db, "SELECT v FROM t WHERE k = 1", ExecOptions{AsOf: past})
	if got := strings.Join(rowsToStrings(res), ";"); got != "one" {
		t.Fatalf("ExecOptions.AsOf = %q, want one", got)
	}
}

func TestAsOfIndexScanAgreesWithFullScan(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT, v INT)")
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES (%d, 0)", i), ExecOptions{})
	}
	past := db.ClockNow()
	mustExec(t, db, "UPDATE t SET v = 1", ExecOptions{})
	mustExec(t, db, "DELETE FROM t WHERE k >= 10", ExecOptions{})

	full := asOfRows(t, db, fmt.Sprintf("SELECT k, v FROM t AS OF %d ORDER BY k", past))
	mustExec(t, db, "CREATE INDEX ix_k ON t (k) USING ordered", ExecOptions{})
	// The index was built after the churn, yet it indexes dead versions too,
	// so an index-backed AS OF probe must agree with the full scan.
	for i := 0; i < 20; i++ {
		q := fmt.Sprintf("SELECT v FROM t WHERE k = %d AS OF %d", i, past)
		if got := asOfRows(t, db, q); got != "0" {
			t.Fatalf("indexed AS OF probe k=%d = %q, want 0", i, got)
		}
	}
	indexed := asOfRows(t, db, fmt.Sprintf("SELECT k, v FROM t AS OF %d ORDER BY k", past))
	if full != indexed {
		t.Fatalf("AS OF full scan %q != post-index scan %q", full, indexed)
	}
}

func TestAsOfDoesNotSeeConcurrentUncommitted(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1)", ExecOptions{})

	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("BEGIN", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO t VALUES (2)", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	now := db.ClockNow()
	q := fmt.Sprintf("SELECT k FROM t AS OF %d ORDER BY k", now)
	if got := asOfRows(t, db, q); got != "1" {
		t.Fatalf("AS OF with open txn = %q, want 1", got)
	}
	if _, err := s.Exec("COMMIT", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	// The insert committed after tick `now`, so the historical cut still
	// excludes it; the head read sees it.
	if got := asOfRows(t, db, q); got != "1" {
		t.Fatalf("AS OF pre-commit tick = %q, want 1", got)
	}
	if got := asOfRows(t, db, "SELECT k FROM t ORDER BY k"); got != "1;2" {
		t.Fatalf("head read = %q, want 1;2", got)
	}
}

func TestAsOfSurvivesCheckpointRestart(t *testing.T) {
	fs := newMapFS()
	db := NewDB(nil)
	if _, err := db.Recover(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (k INT, v TEXT)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1, 'one')", ExecOptions{})
	past := db.ClockNow()
	mustExec(t, db, "UPDATE t SET v = 'uno' WHERE k = 1", ExecOptions{})
	if err := db.Checkpoint(fs, "/d"); err != nil {
		t.Fatal(err)
	}

	// Restart from the checkpoint alone: dead versions ride the .tbl format.
	db2 := NewDB(nil)
	if _, err := db2.Recover(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	q := fmt.Sprintf("SELECT v FROM t WHERE k = 1 AS OF %d", past)
	if got := asOfRows(t, db2, q); got != "one" {
		t.Fatalf("AS OF after restart = %q, want one", got)
	}
	if got := asOfRows(t, db2, "SELECT v FROM t WHERE k = 1"); got != "uno" {
		t.Fatalf("head after restart = %q, want uno", got)
	}
}

// TestHorizonOfAVacuumThatPrunesNothingSurvivesRestart: the horizon lives in
// every table file and, until the next checkpoint, in the log. A VACUUM over
// tables with nothing to reclaim changes no row of any of them — and still
// has to reach the files, because the checkpoint that follows truncates its
// log record: every table is written again, and a restart from the files
// alone fences AS OF where the running database did.
func TestHorizonOfAVacuumThatPrunesNothingSurvivesRestart(t *testing.T) {
	fs := newMapFS()
	db := NewDB(nil)
	if _, err := db.Recover(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE t (k INT, v TEXT)", ExecOptions{})
	mustExec(t, db, "CREATE TABLE u (k INT)", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES (1, 'one')", ExecOptions{})
	if err := db.Checkpoint(fs, "/d"); err != nil { // both tables now equal their files
		t.Fatal(err)
	}
	past := db.ClockNow()
	if res := mustExec(t, db, "VACUUM", ExecOptions{}); res.RowsAffected != 0 {
		t.Fatalf("VACUUM pruned %d versions of tables without history", res.RowsAffected)
	}
	h := db.VacuumHorizon()
	if h <= past {
		t.Fatalf("horizon %d did not move past %d", h, past)
	}
	if err := db.Checkpoint(fs, "/d"); err != nil { // truncates the walVacuum record
		t.Fatal(err)
	}
	db2 := NewDB(nil)
	if _, err := db2.Recover(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	if got := db2.VacuumHorizon(); got != h {
		t.Fatalf("horizon after restart = %d, want %d", got, h)
	}
	if _, err := db2.Exec(fmt.Sprintf("SELECT v FROM t AS OF %d", past), ExecOptions{}); err == nil {
		t.Fatalf("AS OF %d below the horizon %d answered after restart", past, h)
	}
	// Dropping one table does not take the horizon with it: every file has it.
	mustExec(t, db2, "DROP TABLE t", ExecOptions{})
	if err := db2.Checkpoint(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	db3 := NewDB(nil)
	if _, err := db3.Recover(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	if got := db3.VacuumHorizon(); got != h {
		t.Fatalf("horizon after dropping a table and restarting = %d, want %d", got, h)
	}
}

func TestVacuumReclaimsAndFencesAsOf(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0)", ExecOptions{})
	past := db.ClockNow()
	for i := 1; i <= 5; i++ {
		mustExec(t, db, fmt.Sprintf("UPDATE t SET v = %d WHERE k = 1", i), ExecOptions{})
	}
	if got := asOfRows(t, db, "SELECT dead_versions FROM ldv_stat_tables WHERE name = 't'"); got != "5" {
		t.Fatalf("dead_versions before vacuum = %q, want 5", got)
	}

	res := mustExec(t, db, "VACUUM", ExecOptions{})
	if res.RowsAffected != 5 {
		t.Fatalf("VACUUM pruned %d versions, want 5", res.RowsAffected)
	}
	if got := asOfRows(t, db, "SELECT dead_versions FROM ldv_stat_tables WHERE name = 't'"); got != "0" {
		t.Fatalf("dead_versions after vacuum = %q, want 0", got)
	}
	if h := db.VacuumHorizon(); h == 0 {
		t.Fatal("vacuum horizon still zero after a pass")
	}
	if _, err := db.Exec(fmt.Sprintf("SELECT v FROM t AS OF %d", past), ExecOptions{}); err == nil {
		t.Fatalf("AS OF %d below horizon %d not rejected", past, db.VacuumHorizon())
	}
	// Head reads are untouched and the stat view reflects the pass.
	if got := asOfRows(t, db, "SELECT v FROM t WHERE k = 1"); got != "5" {
		t.Fatalf("head read after vacuum = %q, want 5", got)
	}
	stats := db.VacuumStatsSnapshot()
	if stats.Passes < 1 || stats.Pruned != 5 {
		t.Fatalf("vacuum stats = %+v, want >=1 pass and 5 pruned", stats)
	}
	if got := asOfRows(t, db, "SELECT horizon_tick, pruned FROM ldv_stat_vacuum"); got == "" {
		t.Fatal("ldv_stat_vacuum returned no rows")
	}
}

func TestVacuumRetainKeepsWindowReadable(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0)", ExecOptions{})
	mustExec(t, db, "UPDATE t SET v = 1 WHERE k = 1", ExecOptions{})
	inside := db.ClockNow()
	mustExec(t, db, "UPDATE t SET v = 2 WHERE k = 1", ExecOptions{})

	// Retain a window comfortably covering the last update: the tick at
	// `inside` stays readable and its dead predecessor survives.
	win := db.ClockNow() - inside + 2
	mustExec(t, db, fmt.Sprintf("VACUUM RETAIN %d", win), ExecOptions{})
	q := fmt.Sprintf("SELECT v FROM t WHERE k = 1 AS OF %d", inside)
	if got := asOfRows(t, db, q); got != "1" {
		t.Fatalf("AS OF inside retained window = %q, want 1", got)
	}
}

func TestVacuumClampedByOpenTransaction(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 0)", ExecOptions{})

	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("BEGIN", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	// Pin a snapshot, then churn and vacuum from outside.
	if _, err := s.Exec("SELECT v FROM t", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "UPDATE t SET v = 1 WHERE k = 1", ExecOptions{})
	vr, err := db.VacuumTo(db.ClockNow())
	if err != nil {
		t.Fatal(err)
	}
	if vr.Pruned != 0 {
		t.Fatalf("vacuum pruned %d versions a live snapshot could read", vr.Pruned)
	}
	// The open transaction still reads its snapshot.
	res, err := s.Exec("SELECT v FROM t", ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rowsToStrings(res), ";"); got != "0" {
		t.Fatalf("pinned snapshot read = %q, want 0", got)
	}
	if _, err := s.Exec("COMMIT", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestVacuumAndReenactRejectedInsideTransaction(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT)")
	s := db.NewSession()
	defer s.Close()
	if _, err := s.Exec("BEGIN", ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("VACUUM", ExecOptions{}); err == nil {
		t.Fatal("VACUUM inside a transaction not rejected")
	}
	if _, err := s.Exec("REENACT TRANSACTION 1", ExecOptions{}); err == nil {
		t.Fatal("REENACT inside a transaction not rejected")
	}
}

// lastTxnID returns the highest recorded transaction id — the transaction
// committed most recently.
func lastTxnID(t *testing.T, db *DB) int64 {
	t.Helper()
	recs := db.txnHistSnapshot()
	if len(recs) == 0 {
		t.Fatal("no recorded transaction history")
	}
	return recs[len(recs)-1].TxnID
}

func TestReenactTransaction(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10)", ExecOptions{})

	s := db.NewSession()
	defer s.Close()
	for _, sql := range []string{
		"BEGIN",
		"INSERT INTO t VALUES (2, 20)",
		"UPDATE t SET v = 21 WHERE k = 2",
		"SELECT v FROM t ORDER BY k",
		"COMMIT",
	} {
		if _, err := s.Exec(sql, ExecOptions{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	txid := lastTxnID(t, db)

	// Mutate head state so the replay provably reads history, not the
	// present.
	mustExec(t, db, "UPDATE t SET v = 999", ExecOptions{})

	res := mustExec(t, db, fmt.Sprintf("REENACT TRANSACTION %d", txid), ExecOptions{})
	if len(res.Rows) != 3 {
		t.Fatalf("reenacted %d statements, want 3", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r[5].Bool() {
			t.Fatalf("statement %s replay mismatch: rows=%s recorded=%s",
				r[0].String(), r[3].String(), r[4].String())
		}
	}
	// The replayed SELECT sees the transaction's own prior writes (the
	// updated k=2 row) layered over its snapshot — not today's 999s.
	if got := res.Rows[2][6].String(); got != "(10); (21)" {
		t.Fatalf("replayed SELECT result = %q, want (10); (21)", got)
	}
	// The UPDATE dry run re-derives its affected row and lineage.
	if got := res.Rows[1][3].Int(); got != 1 {
		t.Fatalf("UPDATE dry run touched %d rows, want 1", got)
	}
	if res.Rows[1][7].String() == "" {
		t.Fatal("UPDATE dry run recorded no lineage")
	}

	// Replays are repeatable and read-only.
	again := mustExec(t, db, fmt.Sprintf("REENACT TRANSACTION %d", txid), ExecOptions{})
	if a, b := res.Rows[2][6].String(), again.Rows[2][6].String(); a != b {
		t.Fatalf("replay not deterministic: %q then %q", a, b)
	}
}

// TestReenactStampsNothing: a REENACT replay captures lineage, but it is no
// statement a client ran, so it leaves every prov_usedby stamp — and the
// table's stamps counter — as it found them.
func TestReenactStampsNothing(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20)", ExecOptions{})
	s := db.NewSession()
	defer s.Close()
	for _, sql := range []string{"BEGIN", "UPDATE t SET b = 11 WHERE a = 1", "SELECT b FROM t WHERE a = 1", "COMMIT"} {
		if _, err := s.Exec(sql, ExecOptions{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	txid := lastTxnID(t, db)
	mustExec(t, db, "SELECT PROVENANCE b FROM t WHERE a = 1", ExecOptions{}) // one stamp to keep
	tbl, _ := db.lookupTable("t")
	const stamps = "SELECT a, prov_usedby FROM t ORDER BY a"
	before, counter := asOfRows(t, db, stamps), tbl.stamps.Load()
	res := mustExec(t, db, fmt.Sprintf("REENACT TRANSACTION %d", txid), ExecOptions{WithLineage: true})
	if len(res.Rows) != 2 || res.Rows[0][7].String() == "" || res.Rows[1][7].String() == "" {
		t.Fatalf("REENACT = %v, want two replays with lineage", res.Rows)
	}
	if got := asOfRows(t, db, stamps); got != before {
		t.Errorf("prov_usedby after REENACT = %s, before %s", got, before)
	}
	if tbl.stamps.Load() != counter {
		t.Error("REENACT moved the stamps counter")
	}
}

func TestReenactWhatIfSubstitute(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT, v INT)")
	s := db.NewSession()
	defer s.Close()
	for _, sql := range []string{
		"BEGIN",
		"INSERT INTO t VALUES (1, 10)",
		"SELECT v FROM t WHERE k = 1",
		"COMMIT",
	} {
		if _, err := s.Exec(sql, ExecOptions{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	txid := lastTxnID(t, db)

	sub := fmt.Sprintf(
		"REENACT TRANSACTION %d SUBSTITUTE 2 WITH 'SELECT k, v FROM t WHERE k = 1'", txid)
	res := mustExec(t, db, sub, ExecOptions{})
	if len(res.Rows) != 2 {
		t.Fatalf("reenacted %d statements, want 2", len(res.Rows))
	}
	if got := res.Rows[1][6].String(); got != "(1, 10)" {
		t.Fatalf("substituted SELECT result = %q, want (1, 10)", got)
	}

	// Out-of-range ordinals and unknown transactions fail loudly.
	bad := fmt.Sprintf("REENACT TRANSACTION %d SUBSTITUTE 9 WITH 'SELECT 1'", txid)
	if _, err := db.Exec(bad, ExecOptions{}); err == nil {
		t.Fatal("out-of-range SUBSTITUTE ordinal not rejected")
	}
	if _, err := db.Exec("REENACT TRANSACTION 999999", ExecOptions{}); err == nil {
		t.Fatal("REENACT of unknown transaction not rejected")
	}
}

func TestReenactRejectedBelowVacuumHorizon(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (k INT, v INT)")
	s := db.NewSession()
	defer s.Close()
	for _, sql := range []string{"BEGIN", "INSERT INTO t VALUES (1, 10)", "COMMIT"} {
		if _, err := s.Exec(sql, ExecOptions{}); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	txid := lastTxnID(t, db)
	mustExec(t, db, "UPDATE t SET v = 11", ExecOptions{})
	mustExec(t, db, "VACUUM", ExecOptions{})
	if _, err := db.Exec(fmt.Sprintf("REENACT TRANSACTION %d", txid), ExecOptions{}); err == nil {
		t.Fatal("REENACT below the vacuum horizon not rejected")
	}
}

// TestCommitRegistryIsOrderedAndBounded: the commit-timestamp registry is
// kept in commit-tick order, loses its oldest half past committedTsCap and
// its prefix at or below a vacuum horizon, and an AS OF cut treats exactly
// the commits after its tick as in flight.
func TestCommitRegistryIsOrderedAndBounded(t *testing.T) {
	db := NewDB(nil)
	ids := make([]int64, 0, committedTsCap+10)
	for len(ids) < cap(ids) {
		x := db.beginTxn()
		db.endTxnCommitted(x.id)
		ids = append(ids, x.id)
	}
	if n := len(db.committed); n > committedTsCap || n < committedTsCap/2 {
		t.Fatalf("%d commits registered, cap %d", n, committedTsCap)
	}
	for i := 1; i < len(db.committed); i++ {
		if db.committed[i-1].ts >= db.committed[i].ts {
			t.Fatalf("registry out of tick order at %d: %v %v", i, db.committed[i-1], db.committed[i])
		}
	}
	last := db.committed[len(db.committed)-3:]
	snap := db.takeSnapshotAsOf(last[0].ts)
	for _, c := range last {
		if in := snap.active.has(c.id); in != (c.ts > last[0].ts) {
			t.Fatalf("AS OF %d: commit %v in flight = %v", last[0].ts, c, in)
		}
	}
	if got := db.committed[len(db.committed)-1].id; got != ids[len(ids)-1] {
		t.Fatalf("the newest registered commit is %d, want %d", got, ids[len(ids)-1])
	}
	db.pruneMetaBelow(last[1].ts)
	if len(db.committed) != 1 || db.committed[0] != last[2] {
		t.Fatalf("after a vacuum at %d the registry holds %v", last[1].ts, db.committed)
	}
}
