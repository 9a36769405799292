package engine

import (
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

func preparedTestDB(t *testing.T) *DB {
	t.Helper()
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	for i := 1; i <= 20; i++ {
		mustExec(t, db, "INSERT INTO t VALUES ("+itoa(i)+", "+itoa(i%5)+")", ExecOptions{})
	}
	return db
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestPreparedParams(t *testing.T) {
	db := preparedTestDB(t)
	ps, err := db.Prepare("SELECT a FROM t WHERE b = ? ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if ps.NumParams != 1 {
		t.Fatalf("NumParams = %d, want 1", ps.NumParams)
	}
	s := db.NewSession()
	defer s.Close()
	res, err := s.ExecPrepared(ps, []sqlval.Value{sqlval.NewInt(2)}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Re-execution with a different value reuses the same statement.
	res, err = s.ExecPrepared(ps, []sqlval.Value{sqlval.NewInt(0)}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[0][0].Int() != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if ps.Calls() != 2 {
		t.Fatalf("Calls = %d, want 2", ps.Calls())
	}
	// Arity is checked before execution.
	if _, err := s.ExecPrepared(ps, nil, ExecOptions{}); err == nil || !strings.Contains(err.Error(), "wants 1 parameters") {
		t.Fatalf("arity error = %v", err)
	}
	// A NULL parameter matches nothing through an equality predicate.
	res, err = s.ExecPrepared(ps, []sqlval.Value{sqlval.Null}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("NULL param matched %d rows", len(res.Rows))
	}
}

func TestPreparedDML(t *testing.T) {
	db := preparedTestDB(t)
	ins, err := db.Prepare("INSERT INTO t VALUES (?, ?)")
	if err != nil {
		t.Fatal(err)
	}
	s := db.NewSession()
	defer s.Close()
	if _, err := s.ExecPrepared(ins, []sqlval.Value{sqlval.NewInt(100), sqlval.NewInt(9)}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	upd, err := db.Prepare("UPDATE t SET b = ? WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.ExecPrepared(upd, []sqlval.Value{sqlval.NewInt(42), sqlval.NewInt(100)}, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("RowsAffected = %d", res.RowsAffected)
	}
	got := mustExec(t, db, "SELECT b FROM t WHERE a = 100", ExecOptions{})
	if len(got.Rows) != 1 || got.Rows[0][0].Int() != 42 {
		t.Fatalf("rows = %v", got.Rows)
	}
}

// TestPlanCacheInvalidation pins the tentpole guarantee: a cacheable
// prepared SELECT reuses its plan tree across executions, and CREATE INDEX
// bumps the DDL epoch so the next execution re-plans — observably switching
// to the index scan the new index enables.
func TestPlanCacheInvalidation(t *testing.T) {
	db := preparedTestDB(t)
	ps, err := db.Prepare("SELECT a FROM t WHERE b = ?")
	if err != nil {
		t.Fatal(err)
	}
	if !ps.cacheable {
		t.Fatal("simple SELECT must be plan-cacheable")
	}
	s := db.NewSession()
	defer s.Close()
	arg := []sqlval.Value{sqlval.NewInt(2)}

	inval0 := mPlanCacheInvalidations.Load()
	if _, err := s.ExecPrepared(ps, arg, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecPrepared(ps, arg, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if ps.CacheHits() != 1 {
		t.Fatalf("CacheHits = %d, want 1 (miss then hit)", ps.CacheHits())
	}
	// Before the index exists, the plan is a table scan.
	if ops := analyzeOps(t, db, "SELECT a FROM t WHERE b = 2"); hasOp(ops, "index_scan") {
		t.Fatalf("unexpected index_scan before CREATE INDEX: %v", ops)
	}

	mustExec(t, db, "CREATE INDEX ix_b ON t (b)", ExecOptions{})

	scans0 := mustExec(t, db, "SELECT scans FROM ldv_stat_indexes WHERE name = 'ix_b'", ExecOptions{}).Rows[0][0].Int()
	if _, err := s.ExecPrepared(ps, arg, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := mPlanCacheInvalidations.Load() - inval0; got < 1 {
		t.Fatalf("plan.cache_invalidations delta = %d, want >= 1", got)
	}
	// The re-planned prepared execution actually probed the new index.
	scans1 := mustExec(t, db, "SELECT scans FROM ldv_stat_indexes WHERE name = 'ix_b'", ExecOptions{}).Rows[0][0].Int()
	if scans1 <= scans0 {
		t.Fatalf("prepared execution did not use ix_b: scans %d -> %d", scans0, scans1)
	}
	// And EXPLAIN ANALYZE confirms the statement shape now plans an
	// index scan with the parameter lowered into the probe.
	if ops := analyzeOps(t, db, "SELECT a FROM t WHERE b = 2"); !hasOp(ops, "index_scan") {
		t.Fatalf("no index_scan after CREATE INDEX: %v", ops)
	}
	// Subsequent executions hit the rebuilt cache entry again.
	hits := ps.CacheHits()
	if _, err := s.ExecPrepared(ps, arg, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if ps.CacheHits() != hits+1 {
		t.Fatalf("CacheHits = %d, want %d", ps.CacheHits(), hits+1)
	}
}

// TestPlanCacheSharedAcrossSessions: the cache is keyed by statement text, so
// two sessions preparing the same statement text share one plan tree.
func TestPlanCacheSharedAcrossSessions(t *testing.T) {
	db := preparedTestDB(t)
	ps1, err := db.Prepare("SELECT a FROM t WHERE b = ?")
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := db.Prepare("SELECT a FROM t WHERE b = ?")
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := db.NewSession(), db.NewSession()
	defer s1.Close()
	defer s2.Close()
	if _, err := s1.ExecPrepared(ps1, []sqlval.Value{sqlval.NewInt(1)}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.ExecPrepared(ps2, []sqlval.Value{sqlval.NewInt(3)}, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if ps2.CacheHits() != 1 {
		t.Fatalf("second statement did not hit the shared cache: hits = %d", ps2.CacheHits())
	}
}

// TestPlanCacheKeepsLiteralsApart: a plan embeds its statement's constants,
// so prepared statements of one shape but different literals must not share
// a cached plan. The text protocol plans afresh and is the reference.
func TestPlanCacheKeepsLiteralsApart(t *testing.T) {
	db := preparedTestDB(t)
	s := db.NewSession()
	defer s.Close()
	for _, sql := range []string{
		"SELECT a FROM t WHERE b = 2 ORDER BY a LIMIT 1",
		"SELECT a FROM t WHERE b = 3 ORDER BY a LIMIT 2",
		"SELECT a FROM t WHERE b = 3 LIMIT 1",
		"SELECT a FROM t WHERE b = 2 LIMIT 2",
	} {
		ps, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.ExecPrepared(ps, nil, ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := rowsToStrings(mustExec(t, db, sql, ExecOptions{}))
		if g := rowsToStrings(got); len(g) == 0 || strings.Join(g, ",") != strings.Join(want, ",") {
			t.Errorf("%s: prepared rows %v, text rows %v", sql, g, want)
		}
	}
}

// TestPlanCacheSurvivesHashCollision forces two statement texts onto one
// cache key: each must still run its own plan, not whichever got there
// first.
func TestPlanCacheSurvivesHashCollision(t *testing.T) {
	db := preparedTestDB(t)
	s := db.NewSession()
	defer s.Close()
	sqls := []string{
		"SELECT a FROM t WHERE b = 2 ORDER BY a LIMIT 3",
		"SELECT b FROM t WHERE a > 17 ORDER BY b",
	}
	var stmts []*PreparedStmt
	for _, sql := range sqls {
		ps, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		ps.textHash = 42
		stmts = append(stmts, ps)
	}
	for round := 0; round < 3; round++ {
		for i, ps := range stmts {
			got, err := s.ExecPrepared(ps, nil, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := rowsToStrings(mustExec(t, db, sqls[i], ExecOptions{}))
			if g := rowsToStrings(got); len(g) == 0 || strings.Join(g, ",") != strings.Join(want, ",") {
				t.Errorf("round %d, %s: prepared rows %v, text rows %v", round, sqls[i], g, want)
			}
		}
	}
	// The same statement twice in a row is still a hit.
	before := stmts[1].CacheHits()
	if _, err := s.ExecPrepared(stmts[1], nil, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if stmts[1].CacheHits() != before+1 {
		t.Errorf("re-executing the cached statement: %d hits, want %d", stmts[1].CacheHits(), before+1)
	}
}
