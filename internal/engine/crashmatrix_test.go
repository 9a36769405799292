package engine

import (
	"fmt"
	"testing"

	"ldv/internal/faultfs"
)

// The crash matrix: run a fixed workload against a fault-injecting
// filesystem that crashes on the Nth mutating operation, for every N the
// workload performs and for several torn-append fractions, then recover from
// the surviving files and check the durability contract:
//
//	acked ⊆ recovered ⊆ attempted
//
// — every commit the client was told succeeded is present, nothing the
// client never issued is present, and a commit that was in flight at the
// crash (attempted but never acknowledged) is either fully present or fully
// absent, never partial.

// crashOp identifies one workload operation for the contract check.
type crashOp int

const (
	opCreateT crashOp = iota
	opIns1
	opCreateIx // CREATE INDEX early so most writes run index-maintained
	opIns2
	opIns3
	opTxnA // BEGIN; INSERT 10; INSERT 11; COMMIT — the atomicity pair
	opUpd2 // index-located UPDATE (WHERE on the indexed column)
	opDel3
	opVacuum // VACUUM after the churn above left dead versions to reclaim
	opCkpt
	opIns4
	opCreateU
	opInsU
	opTxnB    // BEGIN; INSERT 12; INSERT 13; COMMIT
	opDropIx2 // create+drop a second index, exercising drop durability
	// The hazard of skipping clean tables: a checkpoint taken while a
	// transaction is open writes t without that transaction's rows, the commit
	// changes no byte of the table, and the next checkpoint truncates the
	// commit's log record — so it must write t again, not skip it.
	opCkptOpenTxn // BEGIN; INSERT 14; INSERT 15; checkpoint
	opTxnC        // COMMIT
	opCkpt2
	opIns5 // one more logged operation, so there are crash points past the truncation
	opCount
)

// crashWorkload drives the fixed workload against fs, recording which
// operations were acknowledged (returned nil). It stops early once an
// operation fails — after a crash the engine's WAL failure is sticky, and a
// real client would be dead anyway. boot reports whether the initial
// recovery itself succeeded.
func crashWorkload(fs FileSystem) (acked [opCount]bool, boot bool) {
	db := NewDB(nil)
	if _, err := db.Recover(fs, "/data"); err != nil {
		return acked, false
	}
	boot = true
	step := func(op crashOp, run func() error) bool {
		if err := run(); err != nil {
			return false
		}
		acked[op] = true
		return true
	}
	exec := func(sql string) func() error {
		return func() error { _, err := db.Exec(sql, ExecOptions{}); return err }
	}
	txn := func(stmts ...string) func() error {
		return func() error {
			s := db.NewSession()
			defer s.Close()
			for _, sql := range append(append([]string{"BEGIN"}, stmts...), "COMMIT") {
				if _, err := s.Exec(sql, ExecOptions{}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	open := db.NewSession() // opCkptOpenTxn's transaction, committed by opTxnC
	defer open.Close()
	steps := []struct {
		op  crashOp
		run func() error
	}{
		{opCreateT, exec("CREATE TABLE t (k INT PRIMARY KEY, v TEXT)")},
		{opIns1, exec("INSERT INTO t VALUES (1, 'one')")},
		{opCreateIx, exec("CREATE INDEX ix_v ON t (v)")},
		{opIns2, exec("INSERT INTO t VALUES (2, 'two')")},
		{opIns3, exec("INSERT INTO t VALUES (3, 'three')")},
		{opTxnA, txn("INSERT INTO t VALUES (10, 'a')", "INSERT INTO t VALUES (11, 'a')")},
		{opUpd2, exec("UPDATE t SET v = 'dos' WHERE v = 'two'")},
		{opDel3, exec("DELETE FROM t WHERE k = 3")},
		{opVacuum, exec("VACUUM")}, // writes a walVacuum record, then prunes
		{opCkpt, func() error { return db.Checkpoint(fs, "/data") }},
		{opIns4, exec("INSERT INTO t VALUES (4, 'four')")},
		{opCreateU, exec("CREATE TABLE u (x INT)")},
		{opInsU, exec("INSERT INTO u VALUES (42)")},
		{opTxnB, txn("INSERT INTO t VALUES (12, 'b')", "INSERT INTO t VALUES (13, 'b')")},
		{opDropIx2, func() error {
			if _, err := db.Exec("CREATE INDEX ix_tmp ON t (k) USING ordered", ExecOptions{}); err != nil {
				return err
			}
			_, err := db.Exec("DROP INDEX ix_tmp", ExecOptions{})
			return err
		}},
		{opCkptOpenTxn, func() error {
			for _, sql := range []string{"BEGIN", "INSERT INTO t VALUES (14, 'c')", "INSERT INTO t VALUES (15, 'c')"} {
				if _, err := open.Exec(sql, ExecOptions{}); err != nil {
					return err
				}
			}
			return db.Checkpoint(fs, "/data")
		}},
		{opTxnC, func() error { _, err := open.Exec("COMMIT", ExecOptions{}); return err }},
		{opCkpt2, func() error { return db.Checkpoint(fs, "/data") }},
		{opIns5, exec("INSERT INTO t VALUES (5, 'five')")},
	}
	for _, s := range steps {
		if !step(s.op, s.run) {
			return acked, boot
		}
	}
	return acked, boot
}

// hasTable reports whether the recovered catalog holds the table.
func hasTable(db *DB, table string) bool {
	for _, name := range db.TableNames() {
		if name == table {
			return true
		}
	}
	return false
}

// tableState reads the recovered table t into key → value, or nil when the
// table is absent.
func tableState(t *testing.T, db *DB, table string) map[int64]string {
	t.Helper()
	if !hasTable(db, table) {
		return nil
	}
	res, err := db.Exec("SELECT k, v FROM "+table, ExecOptions{})
	if err != nil {
		t.Fatalf("read recovered %s: %v", table, err)
	}
	out := map[int64]string{}
	for _, r := range res.Rows {
		out[r[0].Int()] = r[1].String()
	}
	return out
}

// checkContract asserts the durability contract for one crash run. ackedUpTo
// maps each op to whether it was acknowledged; ops after the first failure
// were never attempted... except exactly one, the op in flight at the crash.
func checkContract(t *testing.T, db *DB, acked [opCount]bool, label string) {
	t.Helper()
	rows := tableState(t, db, "t")

	// attempted = acked ops plus the first unacked one (in flight at the
	// crash); everything after was never issued.
	attempted := [opCount]bool{}
	inFlight := -1
	for op := crashOp(0); op < opCount; op++ {
		attempted[op] = true
		if !acked[op] {
			inFlight = int(op)
			break
		}
	}

	requireRow := func(k int64, v string, op crashOp, what string) {
		t.Helper()
		got, ok := rows[k]
		if acked[op] && (!ok || got != v) {
			t.Fatalf("%s: acked %s lost (k=%d got %q ok=%v)", label, what, k, got, ok)
		}
		if !attempted[op] && ok {
			t.Fatalf("%s: unattempted %s present (k=%d)", label, what, k)
		}
	}

	if acked[opCreateT] && rows == nil {
		t.Fatalf("%s: acked CREATE TABLE t lost", label)
	}
	if !attempted[opCreateT] && rows != nil {
		t.Fatalf("%s: table t exists before CREATE was attempted", label)
	}
	if rows == nil {
		return // nothing further can be checked
	}
	requireRow(1, "one", opIns1, "insert")
	requireRow(4, "four", opIns4, "insert")
	requireRow(5, "five", opIns5, "insert")

	// Index contract: an acked CREATE INDEX survives recovery, an
	// unattempted one is absent, and whatever the crash left behind, a query
	// routed through the planner must agree with the raw table contents.
	res, err := db.Exec("SELECT name FROM ldv_stat_indexes WHERE name = 'ix_v'", ExecOptions{})
	if err != nil {
		t.Fatalf("%s: read ldv_stat_indexes: %v", label, err)
	}
	hasIx := len(res.Rows) == 1
	if acked[opCreateIx] && !hasIx {
		t.Fatalf("%s: acked CREATE INDEX lost", label)
	}
	if !attempted[opCreateIx] && hasIx {
		t.Fatalf("%s: index exists before CREATE INDEX was attempted", label)
	}
	for _, probe := range []string{"one", "dos"} {
		res, err := db.Exec(fmt.Sprintf("SELECT k FROM t WHERE v = '%s'", probe), ExecOptions{})
		if err != nil {
			t.Fatalf("%s: indexed probe %q: %v", label, probe, err)
		}
		got := map[int64]bool{}
		for _, r := range res.Rows {
			got[r[0].Int()] = true
		}
		want := map[int64]bool{}
		for k, v := range rows {
			if v == probe {
				want[k] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: probe %q via planner = %v, table holds %v", label, probe, got, want)
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%s: probe %q via planner = %v, table holds %v", label, probe, got, want)
			}
		}
	}

	// The explicit transactions are the atomicity probes: both rows or
	// neither, regardless of ack state.
	for _, pair := range []struct {
		a, b int64
		op   crashOp
	}{{10, 11, opTxnA}, {12, 13, opTxnB}, {14, 15, opTxnC}} {
		_, hasA := rows[pair.a]
		_, hasB := rows[pair.b]
		if hasA != hasB {
			t.Fatalf("%s: txn torn: k=%d present=%v, k=%d present=%v", label, pair.a, hasA, pair.b, hasB)
		}
		if acked[pair.op] && !hasA {
			t.Fatalf("%s: acked txn lost (k=%d,%d)", label, pair.a, pair.b)
		}
		if !attempted[pair.op] && hasA {
			t.Fatalf("%s: unattempted txn present (k=%d,%d)", label, pair.a, pair.b)
		}
	}

	// UPDATE: acked → new value; unattempted → old value; in flight → either.
	if v, ok := rows[2]; ok {
		switch {
		case acked[opUpd2] && v != "dos":
			t.Fatalf("%s: acked update lost: k=2 = %q", label, v)
		case !attempted[opUpd2] && v != "two":
			t.Fatalf("%s: unattempted update applied: k=2 = %q", label, v)
		}
	} else if acked[opIns2] {
		t.Fatalf("%s: acked insert k=2 lost", label)
	}

	// DELETE: acked → gone; unattempted → still there (if its insert acked).
	if _, ok := rows[3]; ok && acked[opDel3] {
		t.Fatalf("%s: acked delete undone: k=3 present", label)
	} else if !ok && acked[opIns3] && !attempted[opDel3] {
		t.Fatalf("%s: k=3 missing though delete was never attempted", label)
	}

	// Vacuum: an acked pass's retention horizon survives recovery (the
	// walVacuum record replays), and the recovered engine keeps fencing AS OF
	// reads below it. An unattempted vacuum must leave the horizon at zero.
	h := db.VacuumHorizon()
	if acked[opVacuum] && h == 0 {
		t.Fatalf("%s: acked VACUUM horizon lost after recovery", label)
	}
	if !attempted[opVacuum] && h != 0 {
		t.Fatalf("%s: horizon %d set before VACUUM was attempted", label, h)
	}
	if h > 1 {
		if _, err := db.Exec(fmt.Sprintf("SELECT k FROM t AS OF %d", h-1), ExecOptions{}); err == nil {
			t.Fatalf("%s: AS OF %d below recovered horizon %d not rejected", label, h-1, h)
		}
	}

	// DDL on the second table.
	hasU := hasTable(db, "u")
	if acked[opCreateU] && !hasU {
		t.Fatalf("%s: acked CREATE TABLE u lost", label)
	}
	if !attempted[opCreateU] && hasU {
		t.Fatalf("%s: table u exists before CREATE was attempted", label)
	}
	if hasU {
		res, err := db.Exec("SELECT x FROM u", ExecOptions{})
		if err != nil {
			t.Fatalf("%s: read recovered u: %v", label, err)
		}
		if acked[opInsU] && len(res.Rows) != 1 {
			t.Fatalf("%s: acked insert into u lost", label)
		}
		if !attempted[opInsU] && len(res.Rows) != 0 {
			t.Fatalf("%s: unattempted insert into u present", label)
		}
	}

	_ = inFlight
}

func TestCrashMatrix(t *testing.T) {
	// Dry run: count the mutating filesystem operations the workload
	// performs when nothing crashes.
	dry := faultfs.New(newMapFS(), 0, 0)
	acked, boot := crashWorkload(dry)
	if !boot {
		t.Fatal("dry run failed to boot")
	}
	for op := crashOp(0); op < opCount; op++ {
		if !acked[op] {
			t.Fatalf("dry run: op %d not acknowledged", op)
		}
	}
	total := dry.Ops()
	if total < int(opCount) {
		t.Fatalf("dry run performed %d fs ops, expected at least %d", total, opCount)
	}

	for _, frac := range []float64{0, 0.5} {
		for crashAt := 1; crashAt <= total; crashAt++ {
			name := fmt.Sprintf("crash=%d,frac=%g", crashAt, frac)
			t.Run(name, func(t *testing.T) {
				inner := newMapFS()
				ffs := faultfs.New(inner, crashAt, frac)
				acked, _ := crashWorkload(ffs)
				if !ffs.Crashed() {
					t.Fatalf("crash point %d never reached", crashAt)
				}

				// Reboot on the surviving files. Recovery must always
				// succeed, whatever the crash point left behind.
				db := NewDB(nil)
				if _, err := db.Recover(inner, "/data"); err != nil {
					t.Fatalf("recovery after %s failed: %v", name, err)
				}
				checkContract(t, db, acked, name)
			})
		}
	}
}
