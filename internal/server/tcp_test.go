package server

import (
	"net"
	"testing"

	"ldv/internal/client"
	"ldv/internal/engine"
)

type netAcceptor struct{ l net.Listener }

func (a netAcceptor) Accept() (net.Conn, error) { return a.l.Accept() }

// TestRealTCPSession exercises the full stack over an actual TCP socket —
// the standalone (non-simulated) deployment mode of cmd/ldvdb.
func TestRealTCPSession(t *testing.T) {
	s := newTestServer(t)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer l.Close()
	go s.Serve(netAcceptor{l})

	conn, err := client.Dial(client.NetDialer{}, l.Addr().String(), client.Options{Proc: "tcp-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	res, err := conn.Query("SELECT a, b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1][1].Str() != "y" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Lineage crosses the real network too.
	res, err = conn.Query("SELECT PROVENANCE a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lineage) != 2 || res.TupleValues.Len() != 2 {
		t.Fatalf("lineage=%d values=%d", len(res.Lineage), res.TupleValues.Len())
	}
	// DML metadata too.
	res, err = conn.Exec("UPDATE t SET b = 'z' WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	_ = engine.ExecOptions{}
}
