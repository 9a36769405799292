package engine

import (
	"fmt"
	"strings"
	"testing"
)

// A primary key is a hash index, <table>_pkey, and `pk = K` probes it. The
// probe must be invisible but for speed: every statement by key answers
// exactly as the same statement written `pk + 0 = K`, which no index can
// serve — rows, RowsAffected, the read set, WrittenRefs and serialization
// errors — while other transactions hold the key, after rollbacks, AS OF
// and VACUUM.

// probeStep is one statement of a scenario, run on session s. %[1]s in sql
// is the key expression; {T} is the tick the last mark step read.
type probeStep struct {
	s    int
	sql  string
	mark bool // read the clock into {T} instead of running a statement
}

var probeScenarios = map[string][]probeStep{
	"uncommitted update by another transaction": {
		{s: 1, sql: "BEGIN"},
		{s: 1, sql: "UPDATE orders SET o_comment = 'mine' WHERE %[1]s = 3"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 3"},
		{s: 0, sql: "UPDATE orders SET o_comment = 'yours' WHERE %[1]s = 3"},
		{s: 0, sql: "DELETE FROM orders WHERE %[1]s = 3"},
		{s: 1, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 3"},
		{s: 1, sql: "COMMIT"},
		{s: 0, sql: "UPDATE orders SET o_comment = 'yours' WHERE %[1]s = 3"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 3"},
	},
	"uncommitted delete by another transaction": {
		{s: 1, sql: "BEGIN"},
		{s: 1, sql: "DELETE FROM orders WHERE %[1]s = 4"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 4"},
		{s: 0, sql: "UPDATE orders SET o_comment = 'late' WHERE %[1]s = 4"},
		{s: 0, sql: "DELETE FROM orders WHERE %[1]s = 4"},
		{s: 1, sql: "UPDATE orders SET o_comment = 'gone' WHERE %[1]s = 4"},
		{s: 1, sql: "COMMIT"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 4"},
		{s: 0, sql: "DELETE FROM orders WHERE %[1]s = 4"},
	},
	"key released by an open transaction": {
		{s: 1, sql: "BEGIN"},
		{s: 1, sql: "UPDATE orders SET o_orderkey = 99 WHERE %[1]s = 5"},
		{s: 0, sql: "INSERT INTO orders VALUES (5, 1, 'claim')"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 5"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 99"},
		{s: 1, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 99"},
		{s: 1, sql: "INSERT INTO orders VALUES (5, 2, 'back')"},
		{s: 1, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 5"},
		{s: 1, sql: "ROLLBACK"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 5"},
		{s: 0, sql: "UPDATE orders SET o_comment = 'kept' WHERE %[1]s = 5"},
	},
	"rollback of an insert, an update and a delete": {
		{s: 1, sql: "BEGIN"},
		{s: 1, sql: "INSERT INTO orders VALUES (50, 7, 'new')"},
		{s: 1, sql: "UPDATE orders SET o_comment = 'changed' WHERE %[1]s = 6"},
		{s: 1, sql: "DELETE FROM orders WHERE %[1]s = 7"},
		{s: 1, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 50"},
		{s: 1, sql: "ROLLBACK"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 50"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 6"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 7"},
		{s: 0, sql: "UPDATE orders SET o_comment = 'after' WHERE %[1]s = 6"},
		{s: 0, sql: "DELETE FROM orders WHERE %[1]s = 7"},
		{s: 0, sql: "INSERT INTO orders VALUES (50, 8, 'again')"},
		{s: 0, sql: "DELETE FROM orders WHERE %[1]s = 50"},
	},
	"AS OF before an update": {
		{s: 0, mark: true},
		{s: 0, sql: "UPDATE orders SET o_comment = 'v2' WHERE %[1]s = 8"},
		{s: 0, sql: "UPDATE orders SET o_comment = 'v3' WHERE %[1]s = 8"},
		{s: 0, sql: "DELETE FROM orders WHERE %[1]s = 9"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders AS OF {T} WHERE %[1]s = 8"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders AS OF {T} WHERE %[1]s = 9"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 8"},
	},
	"after VACUUM": {
		{s: 0, sql: "UPDATE orders SET o_comment = 'a' WHERE %[1]s = 10"},
		{s: 0, sql: "UPDATE orders SET o_comment = 'b' WHERE %[1]s = 10"},
		{s: 0, sql: "DELETE FROM orders WHERE %[1]s = 11"},
		{s: 0, sql: "VACUUM"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 10"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 11"},
		{s: 0, sql: "UPDATE orders SET o_comment = 'c' WHERE %[1]s = 10"},
		{s: 0, sql: "DELETE FROM orders WHERE %[1]s = 10"},
		{s: 0, sql: "INSERT INTO orders VALUES (11, 3, 'reborn')"},
		{s: 0, sql: "SELECT o_orderkey, o_comment FROM orders WHERE %[1]s = 11"},
	},
}

// probeDB is the scenarios' starting state: twelve orders, a few of them
// updated once, so keys have more than one version.
func probeDB(t *testing.T) *DB {
	db := newTestDB(t, "CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_custkey INTEGER, o_comment TEXT)")
	for k := 1; k <= 12; k++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, 'c%d')", k, k%3, k), ExecOptions{})
	}
	mustExec(t, db, "UPDATE orders SET o_custkey = o_custkey + 1 WHERE o_orderkey > 6", ExecOptions{})
	return db
}

// runProbeScenario runs steps with key expression key and returns what
// each statement answered. A SELECT runs once plain and once with lineage.
func runProbeScenario(t *testing.T, db *DB, steps []probeStep, key string) []string {
	sessions := []*Session{db.NewSession(), db.NewSession()}
	var out []string
	var tick uint64
	for _, st := range steps {
		if st.mark {
			tick = db.ClockNow()
			continue
		}
		sql := strings.ReplaceAll(strings.ReplaceAll(st.sql, "%[1]s", key), "{T}", fmt.Sprint(tick))
		for _, lineage := range []bool{false, true} {
			if lineage && !strings.HasPrefix(sql, "SELECT") {
				break
			}
			res, err := sessions[st.s].Exec(sql, ExecOptions{WithLineage: lineage || !strings.HasPrefix(sql, "SELECT")})
			line := fmt.Sprintf("s%d %s:", st.s, st.sql)
			if err != nil {
				line += " error: " + err.Error()
			} else {
				line += fmt.Sprintf(" rows=%v affected=%d read=%v written=%v", rowsToStrings(res), res.RowsAffected, res.TupleValues.Refs(), res.WrittenRefs)
			}
			out = append(out, line)
		}
	}
	return out
}

func TestPrimaryKeyProbeMatchesScan(t *testing.T) {
	for name, steps := range probeScenarios {
		t.Run(name, func(t *testing.T) {
			probed, scanned := probeDB(t), probeDB(t)
			got := runProbeScenario(t, probed, steps, "o_orderkey")
			want := runProbeScenario(t, scanned, steps, "o_orderkey + 0")
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("step %d:\nprobe: %s\nscan:  %s", i, got[i], want[i])
				}
			}
			conflict := strings.Contains(strings.Join(want, "\n"), "could not serialize")
			if wantConflict := strings.Contains(name, "open transaction") || strings.Contains(name, "another transaction"); conflict != wantConflict {
				t.Errorf("serialization error in the transcript: %v, want %v", conflict, wantConflict)
			}
			if t.Failed() {
				t.Logf("scan transcript:\n%s", strings.Join(want, "\n"))
			}
			if n := pkeyScans(t, probed); n == 0 {
				t.Error("no statement by key probed orders_pkey")
			}
			if n := pkeyScans(t, scanned); n != 0 {
				t.Errorf("pk + 0 = K probed orders_pkey %d times", n)
			}
		})
	}
}

func pkeyScans(t *testing.T, db *DB) int64 {
	res := mustExec(t, db, "SELECT scans FROM ldv_stat_indexes WHERE name = 'orders_pkey'", ExecOptions{})
	if len(res.Rows) != 1 {
		t.Fatalf("orders_pkey listed %d times in ldv_stat_indexes", len(res.Rows))
	}
	return res.Rows[0][0].Int()
}

func TestPrimaryKeyIndexIsImplicit(t *testing.T) {
	db := probeDB(t)
	for _, sql := range []string{
		"SELECT o_comment FROM orders WHERE o_orderkey = 3",
		"UPDATE orders SET o_comment = 'x' WHERE o_orderkey = 3",
		"DELETE FROM orders WHERE 3 = o_orderkey",
	} {
		res := mustExec(t, db, "EXPLAIN "+sql, ExecOptions{})
		var leaf string
		for _, r := range res.Rows {
			if op := r[0].Str(); op == "index_scan" || op == "scan" {
				leaf = op + " " + r[1].Str()
			}
		}
		if !strings.HasPrefix(leaf, "index_scan") || !strings.Contains(leaf, "orders_pkey") {
			t.Errorf("EXPLAIN %s: leaf %q, want an index_scan of orders_pkey", sql, leaf)
		}
	}
	for _, sql := range []string{
		"CREATE INDEX orders_pkey ON orders (o_custkey)",
		"CREATE INDEX IF NOT EXISTS orders_pkey ON orders (o_orderkey)",
		"CREATE INDEX other_pkey ON orders (o_custkey)",
		"DROP INDEX orders_pkey",
		"DROP INDEX IF EXISTS orders_pkey",
	} {
		if _, err := db.Exec(sql, ExecOptions{}); err == nil {
			t.Errorf("%s: accepted", sql)
		}
	}
	// Derived from the schema, the index is no definition of the table file.
	fs := newMapFS()
	if err := db.Checkpoint(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(fs.files["/d/orders.tbl"]), "orders_pkey") {
		t.Error("the checkpoint wrote orders_pkey as an index definition")
	}
	loaded := NewDB(nil)
	if err := loaded.LoadDir(fs, "/d"); err != nil {
		t.Fatal(err)
	}
	if got := rowsToStrings(mustExec(t, loaded, "SELECT name, entries FROM ldv_stat_indexes", ExecOptions{})); fmt.Sprint(got) != "[orders_pkey|18]" {
		t.Errorf("loaded indexes = %v, want [orders_pkey|18]", got)
	}
	if got := rowsToStrings(mustExec(t, loaded, "SELECT o_comment FROM orders WHERE o_orderkey = 3", ExecOptions{})); fmt.Sprint(got) != "[c3]" {
		t.Errorf("probe after load = %v", got)
	}
}

// TestLineageReadRunsItsPlan: capturing lineage changes neither the plan
// nor what runs. A lineage `pk = K` read probes the primary key's index as
// a plain one does, EXPLAIN ANALYZE's leaf examines the one version the
// probe finds, and only that version — the statement's version set — is
// stamped.
func TestLineageReadRunsItsPlan(t *testing.T) {
	db := newTestDB(t, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES (1, 10), (2, 20)", ExecOptions{})
	res := mustExec(t, db, "EXPLAIN ANALYZE SELECT PROVENANCE b FROM t WHERE a = 2", ExecOptions{})
	leaf := res.Rows[0]
	if got := fmt.Sprintf("%s %s rows=%d", leaf[0].Str(), leaf[1].Str(), leaf[3].Int()); !strings.HasPrefix(got, "index_scan t via t_pkey") || !strings.HasSuffix(got, "rows=1") {
		t.Errorf("EXPLAIN ANALYZE leaf: %s, want an index_scan via t_pkey of 1 row", got)
	}
	stamped := rowsToStrings(mustExec(t, db, "SELECT a FROM t WHERE prov_usedby <> 0", ExecOptions{}))
	if fmt.Sprint(stamped) != "[2]" {
		t.Errorf("rows stamped by the lineage read: %v, want [2]", stamped)
	}
}

// TestVacuumPrunesIndexesAsARebuildWould: VACUUM filters every index in
// place; what is left must be what re-deriving it from the remaining
// versions gives — for the primary key's index, a declared hash index and
// an ordered one, after updates, deletes, re-inserts and a rollback, and
// when a hash index's emptied buckets outnumber its keys.
func TestVacuumPrunesIndexesAsARebuildWould(t *testing.T) {
	for _, deleteMost := range []bool{false, true} {
		db := newTestDB(t, "CREATE TABLE v (id INTEGER PRIMARY KEY, grp INTEGER, tag TEXT)",
			"CREATE INDEX v_grp ON v (grp) USING ordered", "CREATE INDEX v_tag ON v (tag)")
		for k := 0; k < 300; k++ {
			mustExec(t, db, fmt.Sprintf("INSERT INTO v VALUES (%d, %d, 't%d')", k, k%7, k%11), ExecOptions{})
		}
		mustExec(t, db, "UPDATE v SET grp = grp + 1 WHERE id % 3 = 0", ExecOptions{})
		mustExec(t, db, "UPDATE v SET tag = 'x' WHERE id % 5 = 0", ExecOptions{})
		mustExec(t, db, "UPDATE v SET grp = 500 WHERE id = 7", ExecOptions{}) // a key that empties
		mustExec(t, db, "DELETE FROM v WHERE id = 7", ExecOptions{})
		if deleteMost {
			mustExec(t, db, "DELETE FROM v WHERE id > 20", ExecOptions{})
		} else {
			mustExec(t, db, "DELETE FROM v WHERE id % 4 = 1", ExecOptions{})
			mustExec(t, db, "INSERT INTO v VALUES (1, 100, 'back')", ExecOptions{})
		}
		s := db.NewSession()
		for _, sql := range []string{"BEGIN", "INSERT INTO v VALUES (1000, 1, 'gone')", "UPDATE v SET tag = 'rolled' WHERE id = 2", "ROLLBACK"} {
			if _, err := s.Exec(sql, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		mustExec(t, db, "VACUUM", ExecOptions{})
		tb, err := db.lookupTable("v")
		if err != nil {
			t.Fatal(err)
		}
		if tb.vacuumPruned.Load() == 0 {
			t.Fatal("VACUUM pruned nothing")
		}
		for _, ix := range tb.indexList() {
			fresh := newTableIndex(ix.name, ix.column, ix.col, ix.kind)
			fresh.implicit = ix.implicit
			fresh.rebuild(tb.rows)
			if got, want := indexContents(ix), indexContents(fresh); got != want {
				t.Errorf("deleteMost=%v: %s after VACUUM:\n%s\nrebuilt:\n%s", deleteMost, ix.name, got, want)
			}
			if ix.kind == "ordered" && len(ix.ordered) != int(ix.keys.Load()) {
				t.Errorf("%s keeps %d buckets for %d keys", ix.name, len(ix.ordered), ix.keys.Load())
			}
		}
		if pk := tb.findIndex("v_pkey"); deleteMost && len(pk.buckets) != int(pk.keys.Load()) {
			t.Errorf("v_pkey keeps %d buckets for %d keys: mostly empty, it should have been rebuilt", len(pk.buckets), pk.keys.Load())
		}
	}
}
