package client

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/repl"
	"ldv/internal/server"
	"ldv/internal/wire"
)

// TestConnPoisonsAfterTruncatedFrame is the regression test for the decode
// poisoning bug: a frame that dies mid-payload must fail the query with
// ErrClosed and leave the connection refusing further use, because the
// stream position can no longer be trusted.
func TestConnPoisonsAfterTruncatedFrame(t *testing.T) {
	cEnd, sEnd := net.Pipe()
	go func() {
		if _, err := wire.Read(sEnd); err != nil { // Startup
			return
		}
		_ = wire.Write(sEnd, wire.Ready{})
		if _, err := wire.Read(sEnd); err != nil { // Query
			return
		}
		// A DataRow frame promising 50 payload bytes, delivering 2.
		_, _ = sEnd.Write([]byte{'D', 0, 0, 0, 50, 1, 2})
		sEnd.Close()
	}()
	d := funcDialer(func() (net.Conn, error) { return cEnd, nil })
	conn, err := Dial(d, "db", Options{Proc: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("SELECT 1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("truncated frame: got %v, want ErrClosed", err)
	}
	// Poisoned: no further exchange is attempted.
	if _, err := conn.Query("SELECT 1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("poisoned conn accepted a query: %v", err)
	}
	if _, err := conn.Prepare("SELECT 1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("poisoned conn accepted a prepare request: %v", err)
	}
	if err := conn.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("SELECT 1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed conn: got %v, want ErrClosed", err)
	}
}

type funcDialer func() (net.Conn, error)

func (d funcDialer) Connect(string) (net.Conn, error) { return d() }

// multiDialer routes addresses to in-process servers over net.Pipe.
type multiDialer map[string]*server.Server

func (d multiDialer) Connect(addr string) (net.Conn, error) {
	srv, ok := d[addr]
	if !ok {
		return nil, fmt.Errorf("unknown address %q", addr)
	}
	c, s := net.Pipe()
	go srv.HandleConn(s)
	return c, nil
}

// replicatedPair builds a WAL-backed primary and a caught-up replica, each
// behind its own server, plus the replica handle for lifecycle control.
func replicatedPair(t *testing.T) (multiDialer, *repl.Replica) {
	t.Helper()
	pdb := engine.NewDB(nil)
	if err := pdb.EnableWAL(osim.NewFS(), "/wal"); err != nil {
		t.Fatal(err)
	}
	if _, err := pdb.ExecScript(`
		CREATE TABLE sales (id INT PRIMARY KEY, price FLOAT);
		INSERT INTO sales VALUES (1, 5);`, engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	psrv := server.New(pdb, nil)
	p, err := repl.NewPrimary(pdb)
	if err != nil {
		t.Fatal(err)
	}
	p.SetHeartbeat(20 * time.Millisecond)
	psrv.SetReplicationSource(p)

	rdb := engine.NewDB(nil)
	r := repl.New(rdb, "r1", func() (net.Conn, error) {
		c, s := net.Pipe()
		go psrv.HandleConn(s)
		return c, nil
	})
	rsrv := server.New(rdb, nil)
	rsrv.SetReadGate(r)
	r.Start()
	t.Cleanup(r.Stop)
	if err := r.WaitApplied(0); err != nil {
		t.Fatal(err)
	}
	return multiDialer{"primary": psrv, "replica": rsrv}, r
}

// TestClientReadRouting proves SELECTs are served by the replica: with the
// apply loop stopped, an unbounded read returns the replica's stale view
// while the primary already has the new row.
func TestClientReadRouting(t *testing.T) {
	d, r := replicatedPair(t)
	conn, err := Dial(d, "primary", Options{Proc: "p", ReadReplica: "replica"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Freeze the replica, then write through the primary.
	r.Stop()
	res, err := conn.Query("INSERT INTO sales VALUES (2, 20)")
	if err != nil {
		t.Fatal(err)
	}
	if res.CommitSeq == 0 || conn.LastCommitSeq() != res.CommitSeq {
		t.Fatalf("CommitSeq not tracked: res=%d conn=%d", res.CommitSeq, conn.LastCommitSeq())
	}
	// The routed read sees the frozen replica: still one row.
	res, err = conn.Query("SELECT id FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("routed read saw %d rows; routing to the replica is broken", len(res.Rows))
	}

	// A connection without a replica sees the primary's two rows.
	direct, err := Dial(d, "primary", Options{Proc: "p2"})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if res, err := direct.Query("SELECT id FROM sales"); err != nil || len(res.Rows) != 2 {
		t.Fatalf("primary read: rows=%v err=%v", res, err)
	}
}

// TestClientReadYourWrites bounds every routed read by the client's last
// CommitSeq, so reads always observe the client's own preceding writes.
func TestClientReadYourWrites(t *testing.T) {
	d, _ := replicatedPair(t)
	conn, err := Dial(d, "primary", Options{Proc: "p", ReadReplica: "replica", ReadYourWrites: true})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 2; i < 12; i++ {
		if _, err := conn.Query(fmt.Sprintf("INSERT INTO sales VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
		res, err := conn.Query(fmt.Sprintf("SELECT id FROM sales WHERE id = %d", i))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("read-your-writes violated: row %d not visible after its own write", i)
		}
	}
	// Writes inside a transaction stay on the primary (no routing mid-txn),
	// so transactional reads see uncommitted local state.
	if _, err := conn.Query("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("INSERT INTO sales VALUES (99, 1)"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Query("SELECT id FROM sales WHERE id = 99")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatal("transactional read did not see the uncommitted write; it was misrouted")
	}
	if _, err := conn.Query("COMMIT"); err != nil {
		t.Fatal(err)
	}
}
