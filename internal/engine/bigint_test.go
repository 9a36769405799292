package engine

import (
	"strings"
	"testing"

	"ldv/internal/sqlval"
)

// INTEGERs beyond 2^53, where neighbouring values round to one float64.
// Compare used to order any two numerics as floats and the primary-key
// index was keyed by the float's formatting, so 9007199254740992 and
// 9007199254740993 were one value to a WHERE clause and one key to INSERT.

const (
	big0 = "9007199254740992" // 2^53
	big1 = "9007199254740993"
	big2 = "9007199254740994"
)

func idsOf(t *testing.T, db *DB, sql string) string {
	t.Helper()
	return strings.Join(rowsToStrings(mustExec(t, db, sql, ExecOptions{})), ",")
}

func TestBigIntegersStayDistinct(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (id INTEGER PRIMARY KEY, note TEXT)")
	mustExec(t, db, "INSERT INTO t VALUES ("+big0+", 'even')", ExecOptions{})
	// The neighbour is a different key...
	mustExec(t, db, "INSERT INTO t VALUES ("+big1+", 'odd')", ExecOptions{})
	mustExec(t, db, "INSERT INTO t VALUES ("+big2+", 'even again')", ExecOptions{})
	// ...and the same key still is not.
	if _, err := db.Exec("INSERT INTO t VALUES ("+big1+", 'dup')", ExecOptions{}); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("re-inserting %s: err = %v", big1, err)
	}
	for sql, want := range map[string]string{
		"SELECT id FROM t WHERE id = " + big1:                                      big1,
		"SELECT id FROM t WHERE id = " + big0:                                      big0,
		"SELECT id FROM t WHERE id > " + big0 + " ORDER BY id":                     big1 + "," + big2,
		"SELECT id FROM t WHERE id < " + big1:                                      big0,
		"SELECT id FROM t WHERE id IN (" + big1 + ") ORDER BY id":                  big1,
		"SELECT id FROM t WHERE id IN (" + big0 + ", " + big2 + ", 5) ORDER BY id": big0 + "," + big2,
		"SELECT id FROM t WHERE id NOT IN (" + big1 + ") ORDER BY id":              big0 + "," + big2,
		"SELECT id FROM t ORDER BY id DESC LIMIT 1":                                big2,
		"SELECT note FROM t WHERE id BETWEEN " + big1 + " AND " + big1:             "odd",
	} {
		if got := idsOf(t, db, sql); got != want {
			t.Errorf("%s = %q, want %q", sql, got, want)
		}
	}
	// An UPDATE that moves a key onto its neighbour collides; moving it to
	// a free one does not, and leaves the neighbour alone.
	if _, err := db.Exec("UPDATE t SET id = "+big1+" WHERE id = "+big0, ExecOptions{}); err == nil {
		t.Error("UPDATE onto the neighbouring key must fail")
	}
	mustExec(t, db, "UPDATE t SET id = id + 3 WHERE id = "+big0, ExecOptions{})
	mustExec(t, db, "DELETE FROM t WHERE id = "+big2, ExecOptions{})
	if got, want := idsOf(t, db, "SELECT id FROM t ORDER BY id"), big1+",9007199254740995"; got != want {
		t.Errorf("after UPDATE and DELETE: %q, want %q", got, want)
	}
	// The keys survive a checkpoint and a load as what they are.
	db2 := loadFiles(t, checkpointFiles(t, db))
	if got := idsOf(t, db2, "SELECT id FROM t WHERE id = "+big1); got != big1 {
		t.Errorf("after reload: %q", got)
	}
	mustExec(t, db2, "INSERT INTO t VALUES ("+big0+", 'back')", ExecOptions{})
}

// TestOrderedIndexAroundTwoToThe53: the ordered index keeps one bucket per
// distinct INTEGER there, whatever order they arrive in, and its range
// bounds cut between them.
func TestOrderedIndexAroundTwoToThe53(t *testing.T) {
	db := newTestDB(t,
		"CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)",
		"CREATE INDEX t_k ON t (k) USING ordered")
	for i, k := range []string{big1, big0, big2, big1, "9007199254740991", big0} { // descending and repeated arrivals
		mustExec(t, db, "INSERT INTO t VALUES ("+string(rune('1'+i))+", "+k+")", ExecOptions{})
	}
	check := func(db *DB) {
		t.Helper()
		for sql, want := range map[string]string{
			"SELECT id FROM t WHERE k = " + big1 + " ORDER BY id":                          "1,4",
			"SELECT id FROM t WHERE k = " + big0 + " ORDER BY id":                          "2,6",
			"SELECT id FROM t WHERE k > " + big0 + " ORDER BY id":                          "1,3,4",
			"SELECT id FROM t WHERE k >= " + big1 + " AND k < " + big2 + " ORDER BY id":    "1,4",
			"SELECT id FROM t WHERE k <= " + big0 + " ORDER BY id":                         "2,5,6",
			"SELECT id FROM t WHERE k > 9007199254740991 AND k < " + big1 + " ORDER BY id": "2,6",
			"SELECT id FROM t WHERE k BETWEEN " + big0 + " AND " + big2 + " ORDER BY id":   "1,2,3,4,6",
			"SELECT id FROM t WHERE k > " + big0 + ".0 ORDER BY id":                        "3", // against a FLOAT bound the comparison is a float one: 2^53+1 rounds onto it
			"SELECT count(*) FROM t WHERE k >= 9007199254740991 AND k <= 9007199254740994": "6",
		} {
			if got := idsOf(t, db, sql); got != want {
				t.Errorf("%s = %q, want %q", sql, got, want)
			}
		}
		tbl, _ := db.lookupTable("t")
		if keys := tbl.findIndex("t_k").keys.Load(); keys != 4 {
			t.Errorf("ordered index holds %d distinct keys, want 4", keys)
		}
	}
	check(db)
	plan := strings.Join(rowsToStrings(mustExec(t, db, "EXPLAIN SELECT id FROM t WHERE k > "+big0, ExecOptions{})), "\n")
	if !strings.Contains(plan, "t_k") {
		t.Fatalf("range query does not use the ordered index:\n%s", plan)
	}
	check(loadFiles(t, checkpointFiles(t, db))) // the bulk rebuild groups the same buckets
}

// TestTwoIsStillTwoPointZero: comparing two INTEGERs as integers must not
// cost the places an INTEGER meets a FLOAT their numeric equality.
func TestTwoIsStillTwoPointZero(t *testing.T) {
	db := newTestDB(t,
		"CREATE TABLE i (id INTEGER PRIMARY KEY, n INTEGER)",
		"CREATE TABLE f (id INTEGER PRIMARY KEY, x FLOAT)",
		"CREATE INDEX i_n ON i (n)",
		"CREATE INDEX f_x ON f (x) USING ordered",
		"INSERT INTO i VALUES (1, 2), (2, 3)",
		"INSERT INTO f VALUES (1, 2.0), (2, 2.5), (3, 3)")
	for sql, want := range map[string]string{
		"SELECT id FROM i WHERE n = 2.0":                                      "1", // hash index, FLOAT probe
		"SELECT id FROM f WHERE x = 2":                                        "1", // ordered index, INTEGER probe
		"SELECT id FROM f WHERE x IN (2, 3) ORDER BY id":                      "1,3",
		"SELECT id FROM i WHERE n IN (2.0, 2.5) ORDER BY id":                  "1",
		"SELECT id FROM i WHERE n IN (2.5)":                                   "",
		"SELECT i.id, f.id FROM i, f WHERE i.n = f.x ORDER BY i.id":           "1|1,2|3", // join
		"SELECT x, count(*) FROM f WHERE x IN (2, 3.0) GROUP BY x ORDER BY x": "2|1,3|1",
		"SELECT id FROM i WHERE id = 1.0":                                     "1",
	} {
		if got := idsOf(t, db, sql); got != want {
			t.Errorf("%s = %q, want %q", sql, got, want)
		}
	}
	// A FLOAT that is an integer is coerced into an INTEGER key column, so
	// 1.0 is key 1 to the primary-key index as well.
	if _, err := db.Exec("INSERT INTO i VALUES (1.0, 9)", ExecOptions{}); err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Errorf("INSERT of key 1.0 beside 1: err = %v", err)
	}
}

// TestInSetAgreesWithComparisonChainBeyond2To53: the constant IN list is a
// hash set, the chain of = it abbreviates is Compare called member by
// member; they must agree where INTEGER equality is exact and INTEGER-FLOAT
// equality is a float one — the one place equality is not transitive.
func TestInSetAgreesWithComparisonChainBeyond2To53(t *testing.T) {
	db := newTestDB(t,
		"CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, x FLOAT)",
		"INSERT INTO t VALUES (1, "+big0+", "+big0+".0), (2, "+big1+", 2.0), (3, 2, 0.0), (4, 0, -0.5), (5, NULL, NULL)")
	mustExec(t, db, "UPDATE t SET x = x * 0 WHERE id = 4", ExecOptions{}) // -0.0
	for _, probe := range []string{"k", "x"} {
		for _, list := range [][]string{
			{big1},
			{big0},
			{big0 + ".0"},
			{big1, "2.0"},
			{big0 + ".0", "3"},
			{"2", "0"},
			{"0.0", big2},
			{big2, "NULL"},
			{"'a'", big1},
		} {
			var eqs []string
			for _, m := range list {
				eqs = append(eqs, probe+" = "+m)
			}
			in, chain := probe+" IN ("+strings.Join(list, ", ")+")", "("+strings.Join(eqs, " OR ")+")"
			for _, not := range []string{"", "NOT "} {
				got := rowsToStrings(mustExec(t, db, "SELECT id, "+not+in+" FROM t", ExecOptions{}))
				want := rowsToStrings(mustExec(t, db, "SELECT id, "+not+chain+" FROM t", ExecOptions{}))
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Errorf("%s%s = %v, the chain gives %v", not, in, got, want)
				}
			}
		}
	}
}

// TestKeyOperationsAroundTwoToThe53: DISTINCT, GROUP BY, COUNT(DISTINCT),
// a hash join and a hash-index lookup all key on values, and each must give
// the answer = gives — 2^53 and 2^53 + 1 are two keys, both equal to the
// FLOAT 2^53 they round to.
func TestKeyOperationsAroundTwoToThe53(t *testing.T) {
	db := newTestDB(t,
		"CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER)",
		"CREATE TABLE u (id INTEGER PRIMARY KEY, k INTEGER)",
		"CREATE TABLE f (id INTEGER PRIMARY KEY, x FLOAT)",
		"CREATE TABLE h (id INTEGER PRIMARY KEY, k INTEGER)",
		"CREATE INDEX h_k ON h (k) USING hash",
		"INSERT INTO t VALUES (1, "+big0+"), (2, "+big1+"), (3, "+big0+"), (4, "+big1+"), (5, NULL)",
		"INSERT INTO u VALUES (10, "+big1+"), (11, "+big0+"), (12, NULL)",
		"INSERT INTO f VALUES (20, "+big0+".0)",
		"INSERT INTO h SELECT id, k FROM t")
	for _, c := range []struct{ sql, want string }{
		{"SELECT DISTINCT k FROM t ORDER BY k", "NULL," + big0 + "," + big1},
		{"SELECT k, count(*) FROM t GROUP BY k ORDER BY k", "NULL|1," + big0 + "|2," + big1 + "|2"},
		{"SELECT count(DISTINCT k) FROM t", "2"},
		{"SELECT t.id, u.id FROM t, u WHERE t.k = u.k ORDER BY t.id", "1|11,2|10,3|11,4|10"},
		{"SELECT t.id, f.id FROM t, f WHERE t.k = f.x ORDER BY t.id", "1|20,2|20,3|20,4|20"},
		{"SELECT id FROM h WHERE k = " + big1 + " ORDER BY id", "2,4"},
		{"SELECT id FROM h WHERE k = " + big0 + " ORDER BY id", "1,3"},
		{"SELECT id FROM h WHERE k = " + big0 + ".0 ORDER BY id", "1,2,3,4"},
	} {
		if got := idsOf(t, db, c.sql); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
	if ops := analyzeOps(t, db, "SELECT id FROM h WHERE k = "+big1); !hasOp(ops, "index_scan") {
		t.Errorf("the lookup does not use the hash index: %v", ops)
	}
	tbl, _ := db.lookupTable("h")
	if keys := tbl.findIndex("h_k").keys.Load(); keys != 2 {
		t.Errorf("hash index holds %d distinct keys, want 2", keys)
	}
}

// TestNULInTextKeys: a key of several TEXT columns is its values, not their
// bytes run together, so a NUL inside a value cannot make two keys one.
func TestNULInTextKeys(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT, u TEXT)")
	for i, p := range [][2]string{{"a\x00sb", ""}, {"a", "b\x00s"}} {
		mustExec(t, db, "INSERT INTO t VALUES (?, ?, ?)", ExecOptions{Params: []sqlval.Value{
			sqlval.NewInt(int64(i)), sqlval.NewString(p[0]), sqlval.NewString(p[1])}})
	}
	for _, sql := range []string{
		"SELECT s, u, count(*) FROM t GROUP BY s, u",
		"SELECT DISTINCT s, u FROM t",
	} {
		if got := rowsToStrings(mustExec(t, db, sql, ExecOptions{})); len(got) != 2 {
			t.Errorf("%s: %d rows %q, want 2", sql, len(got), got)
		}
	}
}
