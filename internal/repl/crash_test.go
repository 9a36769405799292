package repl

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"ldv/internal/engine"
)

var errCrash = errors.New("injected replica crash")

// TestReplicaCrashMatrix kills the replica at every apply operation — each
// snapshot chunk and each streamed record — in the style of the faultfs
// crash matrix, then lets the reconnect loop restart it and asserts
// convergence: every write acknowledged on the primary is visible on the
// replica after catch-up.
//
// Iteration i crashes the replica exactly once, at its i-th apply operation;
// the matrix ends once an iteration finishes without reaching operation i.
func TestReplicaCrashMatrix(t *testing.T) {
	const writes = 12
	for i := 0; ; i++ {
		srv, pdb := newPrimary(t)
		// Half the workload lands in the snapshot, half streams live, so the
		// matrix crosses both bootstrap and record-apply operations. An index
		// created before the snapshot rides the bootstrap path; the live half
		// streams index-maintained writes and index DDL as WAL records.
		var last uint64
		step := func(sql string) {
			t.Helper()
			res, err := pdb.Exec(sql, engine.ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			last = res.CommitSeq
		}
		step("CREATE INDEX ix_v ON kv (v)")
		for w := 0; w < writes/2; w++ {
			step(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'pre%d')", w, w))
		}

		r, rdb := newReplica(t, srv, fmt.Sprintf("crash-%d", i))
		var ops atomic.Int64
		var crashed atomic.Bool
		r.SetApplyHook(func(op string) error {
			if ops.Add(1)-1 == int64(i) && crashed.CompareAndSwap(false, true) {
				return errCrash
			}
			return nil
		})
		r.Start()
		// Let bootstrap finish (riding out the crash and reconnect when the
		// crash point lands inside it) so the second half of the workload
		// streams as live records rather than folding into the snapshot.
		if err := r.WaitApplied(last); err != nil {
			t.Fatalf("crash at op %d: bootstrap did not complete: %v", i, err)
		}

		for w := writes / 2; w < writes; w++ {
			step(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'live%d')", w, w))
		}
		step("UPDATE kv SET v = 'moved' WHERE v = 'pre1'")
		step("CREATE INDEX ix_k2 ON kv (k) USING ordered")
		step("DROP INDEX ix_k2")
		// A vacuum pass streams a walVacuum horizon record; the trailing
		// insert advances the commit sequence past it so WaitApplied covers
		// the record too. VACUUM itself reports no CommitSeq, so it does not
		// go through step.
		if _, err := pdb.Exec("VACUUM", engine.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		step(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'post')", writes))
		if err := r.WaitApplied(last); err != nil {
			t.Fatalf("crash at op %d: replica did not converge: %v", i, err)
		}
		if n := len(rows(t, rdb, "SELECT k FROM kv")); n != writes+1 {
			t.Fatalf("crash at op %d: %d rows on replica, want %d", i, n, writes+1)
		}
		// The replica applied the same retention horizon and reclaimed the
		// same dead versions (the superseded 'pre1' row) as the primary.
		if ph, rh := pdb.VacuumHorizon(), rdb.VacuumHorizon(); ph == 0 || ph != rh {
			t.Fatalf("crash at op %d: vacuum horizon primary=%d replica=%d", i, ph, rh)
		}
		assertSameRows(t, pdb, rdb, "SELECT name, dead_versions FROM ldv_stat_tables ORDER BY name")
		assertSameRows(t, pdb, rdb, "SELECT k, v FROM kv ORDER BY k")
		// The replicated index answers queries and matches the primary.
		assertSameRows(t, pdb, rdb, "SELECT k FROM kv WHERE v = 'moved' ORDER BY k")
		ixs := rows(t, rdb, "SELECT name FROM ldv_stat_indexes ORDER BY name")
		if len(ixs) != 2 || ixs[0] != "ix_v|" || ixs[1] != "kv_pkey|" {
			t.Fatalf("crash at op %d: replica indexes = %v, want [ix_v kv_pkey]", i, ixs)
		}
		r.Stop()

		if !crashed.Load() {
			// The whole run finished in fewer than i operations: every
			// reachable crash point has been exercised.
			t.Logf("crash matrix complete after %d crash points", i)
			return
		}
	}
}
