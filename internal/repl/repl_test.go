package repl

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/server"
)

// newPrimary builds a WAL-backed database with a kv table, a server, and a
// Primary wired in as its replication source.
func newPrimary(t *testing.T) (*server.Server, *engine.DB) {
	t.Helper()
	srv, db, _ := newPrimaryFull(t)
	return srv, db
}

func newPrimaryFull(t *testing.T) (*server.Server, *engine.DB, *Primary) {
	t.Helper()
	db := engine.NewDB(nil)
	if err := db.EnableWAL(osim.NewFS(), "/wal"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)`, engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, nil)
	p, err := NewPrimary(db)
	if err != nil {
		t.Fatal(err)
	}
	p.SetHeartbeat(20 * time.Millisecond)
	srv.SetReplicationSource(p)
	return srv, db, p
}

func pipeDial(srv *server.Server) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, s := net.Pipe()
		go srv.HandleConn(s)
		return c, nil
	}
}

func newReplica(t *testing.T, srv *server.Server, id string) (*Replica, *engine.DB) {
	t.Helper()
	rdb := engine.NewDB(nil)
	r := New(rdb, id, pipeDial(srv))
	r.WaitTimeout = 10 * time.Second
	t.Cleanup(r.Stop)
	return r, rdb
}

// rows fingerprints a table's content for cross-database comparison.
func rows(t *testing.T, db *engine.DB, sql string) []string {
	t.Helper()
	res, err := db.Exec(sql, engine.ExecOptions{})
	if err != nil {
		t.Fatalf("rows(%q): %v", sql, err)
	}
	out := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		line := ""
		for _, v := range r {
			line += v.String() + "|"
		}
		out = append(out, line)
	}
	return out
}

func assertSameRows(t *testing.T, pdb, rdb *engine.DB, sql string) {
	t.Helper()
	want, got := rows(t, pdb, sql), rows(t, rdb, sql)
	if len(want) != len(got) {
		t.Fatalf("row count mismatch: primary %d, replica %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d mismatch: primary %q, replica %q", i, want[i], got[i])
		}
	}
}

func TestReplicaBootstrapAndStream(t *testing.T) {
	srv, pdb := newPrimary(t)
	// Pre-subscription data arrives via the snapshot.
	for i := 0; i < 20; i++ {
		if _, err := pdb.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'snap%d')", i, i), engine.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	r, rdb := newReplica(t, srv, "r1")
	r.Start()
	if err := r.WaitApplied(0); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, pdb, rdb, "SELECT k, v FROM kv ORDER BY k")

	// Post-subscription data arrives via the record stream; the last write's
	// CommitSeq bounds the read.
	var last uint64
	for i := 20; i < 40; i++ {
		res, err := pdb.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'live%d')", i, i), engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.CommitSeq == 0 {
			t.Fatal("write produced no CommitSeq")
		}
		last = res.CommitSeq
	}
	if err := r.WaitApplied(last); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, pdb, rdb, "SELECT k, v FROM kv ORDER BY k")

	// Updates and deletes replicate too (end marks + new versions).
	res, err := pdb.Exec("UPDATE kv SET v = 'updated' WHERE k < 5", engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := pdb.Exec("DELETE FROM kv WHERE k >= 35", engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	last = res2.CommitSeq
	if res.CommitSeq == 0 || last == 0 {
		t.Fatal("DML produced no CommitSeq")
	}
	if err := r.WaitApplied(last); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, pdb, rdb, "SELECT k, v FROM kv ORDER BY k")

	// DDL replicates: new tables appear on the replica.
	res, err = pdb.Exec("CREATE TABLE extra (id INT PRIMARY KEY)", engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res2, err = pdb.Exec("INSERT INTO extra VALUES (7)", engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WaitApplied(res2.CommitSeq); err != nil {
		t.Fatal(err)
	}
	_ = res
	assertSameRows(t, pdb, rdb, "SELECT id FROM extra")
}

func TestReplicaRejectsWrites(t *testing.T) {
	srv, _ := newPrimary(t)
	r, rdb := newReplica(t, srv, "r1")
	r.Start()
	if err := r.WaitApplied(0); err != nil {
		t.Fatal(err)
	}
	if _, err := rdb.Exec("INSERT INTO kv VALUES (999, 'nope')", engine.ExecOptions{}); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("replica INSERT: got %v, want ErrReadOnly", err)
	}
	if _, err := rdb.Exec("CREATE TABLE nope (x INT PRIMARY KEY)", engine.ExecOptions{}); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("replica DDL: got %v, want ErrReadOnly", err)
	}
}

// TestReplicaPrefixConsistentReads hammers the replica with reads while a
// writer commits multi-row transactions on the primary. Every transaction
// inserts exactly K rows, so any observed row count not divisible by K means
// a reader saw a torn transaction.
func TestReplicaPrefixConsistentReads(t *testing.T) {
	const K, txns = 5, 40
	srv, pdb := newPrimary(t)
	r, rdb := newReplica(t, srv, "r1")
	r.Start()
	if err := r.WaitApplied(0); err != nil {
		t.Fatal(err)
	}

	done := make(chan uint64, 1)
	go func() {
		var last uint64
		for i := 0; i < txns; i++ {
			sql := "INSERT INTO kv VALUES "
			for j := 0; j < K; j++ {
				if j > 0 {
					sql += ", "
				}
				sql += fmt.Sprintf("(%d, 'x')", i*K+j)
			}
			res, err := pdb.Exec(sql, engine.ExecOptions{})
			if err != nil {
				done <- 0
				return
			}
			last = res.CommitSeq
		}
		done <- last
	}()

	var last uint64
	for {
		select {
		case last = <-done:
		default:
			n := len(rows(t, rdb, "SELECT k FROM kv"))
			if n%K != 0 {
				t.Fatalf("torn read: %d rows visible, not a multiple of %d", n, K)
			}
			continue
		}
		break
	}
	if last == 0 {
		t.Fatal("writer failed")
	}
	if err := r.WaitApplied(last); err != nil {
		t.Fatal(err)
	}
	if n := len(rows(t, rdb, "SELECT k FROM kv")); n != K*txns {
		t.Fatalf("converged to %d rows, want %d", n, K*txns)
	}
	assertSameRows(t, pdb, rdb, "SELECT k, v FROM kv ORDER BY k")
}

// TestReplicaHistoryMatchesPrimary: after write transactions stream, the
// replica's transaction history is the primary's — the same transactions,
// snapshot ticks, WAL sequences, statement and row counts. commit_tick is
// left out: the WAL record is written before the commit tick exists.
func TestReplicaHistoryMatchesPrimary(t *testing.T) {
	srv, pdb := newPrimary(t)
	r, rdb := newReplica(t, srv, "r1")
	r.Start()
	if err := r.WaitApplied(0); err != nil {
		t.Fatal(err)
	}
	s := pdb.NewSession()
	defer s.Close()
	var last uint64
	for i := 0; i < 8; i++ {
		res, err := pdb.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'auto')", 2*i), engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{
			"BEGIN",
			fmt.Sprintf("INSERT INTO kv VALUES (%d, 'txn')", 2*i+1),
			fmt.Sprintf("UPDATE kv SET v = 'both' WHERE k >= %d", 2*i),
			"COMMIT",
		} {
			if res, err = s.Exec(sql, engine.ExecOptions{}); err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
		}
		last = res.CommitSeq
	}
	if err := r.WaitApplied(last); err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, pdb, rdb, "SELECT txn, snapshot_tick, commit_seq, statements, rows FROM ldv_stat_versions ORDER BY txn")
	if n := len(rows(t, rdb, "SELECT txn FROM ldv_stat_versions")); n != 16 {
		t.Fatalf("replica history holds %d transactions, want 16", n)
	}
}

func TestWaitAppliedTimeout(t *testing.T) {
	srv, _ := newPrimary(t)
	r, _ := newReplica(t, srv, "r1")
	r.Start()
	if err := r.WaitApplied(0); err != nil {
		t.Fatal(err)
	}
	r.WaitTimeout = 50 * time.Millisecond
	if err := r.WaitApplied(1 << 40); err == nil {
		t.Fatal("WaitApplied on an unreachable sequence must time out")
	}
}

func TestPromotion(t *testing.T) {
	srv, pdb := newPrimary(t)
	res, err := pdb.Exec("INSERT INTO kv VALUES (1, 'one')", engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, rdb := newReplica(t, srv, "r1")
	r.Start()
	if err := r.WaitApplied(res.CommitSeq); err != nil {
		t.Fatal(err)
	}
	if _, err := rdb.Exec("INSERT INTO kv VALUES (2, 'two')", engine.ExecOptions{}); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatal("replica accepted a write before promotion")
	}
	if err := r.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(); err != nil {
		t.Fatal("second Promote must be a no-op")
	}
	// Writable now, with the replicated data intact.
	if _, err := rdb.Exec("INSERT INTO kv VALUES (2, 'two')", engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := len(rows(t, rdb, "SELECT k FROM kv")); n != 2 {
		t.Fatalf("promoted replica has %d rows, want 2", n)
	}
	// The read gate opens unconditionally after promotion.
	if err := r.WaitApplied(1 << 40); err != nil {
		t.Fatalf("WaitApplied after promotion: %v", err)
	}
	st := r.ReplicationStatus()
	if st["role"] != "promoted" {
		t.Fatalf("role = %v", st["role"])
	}
}

// TestReplicaReconnectCatchUp drops the stream mid-flight via the apply hook
// and checks the reconnect loop re-bootstraps and converges.
func TestReplicaReconnectCatchUp(t *testing.T) {
	srv, pdb := newPrimary(t)
	r, rdb := newReplica(t, srv, "r1")
	var dropped atomic.Bool
	boom := errors.New("injected drop")
	r.SetApplyHook(func(op string) error {
		if dropped.CompareAndSwap(false, true) {
			return boom
		}
		return nil
	})
	r.Start()
	var last uint64
	for i := 0; i < 30; i++ {
		res, err := pdb.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'v%d')", i, i), engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		last = res.CommitSeq
	}
	if err := r.WaitApplied(last); err != nil {
		t.Fatal(err)
	}
	if !dropped.Load() {
		t.Fatal("hook never fired — test exercised nothing")
	}
	assertSameRows(t, pdb, rdb, "SELECT k, v FROM kv ORDER BY k")
}

// TestPrimaryStatus checks the ops-facing status maps on both roles.
func TestPrimaryStatus(t *testing.T) {
	srv, pdb, p := newPrimaryFull(t)
	r, _ := newReplica(t, srv, "status-replica")
	r.Start()
	res, err := pdb.Exec("INSERT INTO kv VALUES (1, 'x')", engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.WaitApplied(res.CommitSeq); err != nil {
		t.Fatal(err)
	}
	st := p.ReplicationStatus()
	if st["role"] != "primary" {
		t.Fatalf("role = %v", st["role"])
	}
	subs := st["subscribers"].([]map[string]any)
	if len(subs) != 1 || subs[0]["id"] != "status-replica" {
		t.Fatalf("subscribers = %v", subs)
	}
	if err := p.Promote(); err == nil {
		t.Fatal("promoting a primary must fail")
	}
	rst := r.ReplicationStatus()
	if rst["role"] != "replica" || rst["ready"] != true {
		t.Fatalf("replica status = %v", rst)
	}
}
