package client

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/sqlval"
	"ldv/internal/wire"
)

// scriptedConn is a connection to a fake server that answers the handshake
// and then the first request with the given frames.
func scriptedConn(t *testing.T, answer ...wire.Message) *Conn {
	t.Helper()
	cEnd, sEnd := net.Pipe()
	go func() {
		defer sEnd.Close()
		if _, err := wire.Read(sEnd); err != nil { // Startup
			return
		}
		_ = wire.Write(sEnd, wire.Ready{})
		if _, err := wire.Read(sEnd); err != nil { // the request
			return
		}
		// One write, which the client's buffered reader takes in one read
		// whether or not it reads to the end; then drain until it hangs up.
		var buf bytes.Buffer
		for _, m := range answer {
			_ = wire.Write(&buf, m)
		}
		if _, err := sEnd.Write(buf.Bytes()); err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, sEnd)
	}()
	conn, err := Dial(funcDialer(func() (net.Conn, error) { return cEnd, nil }), "db", Options{Proc: "p"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// oneVersion is a version set of one version of table t.
func oneVersion() engine.VersionSet {
	return engine.NewVersionSet([]engine.TupleRef{{Table: "t", Row: 1, Version: 1}}, [][]sqlval.Value{{sqlval.NewInt(7)}})
}

// queryRefused asserts the query fails with a protocol error naming want and
// leaves the connection poisoned.
func queryRefused(t *testing.T, conn *Conn, want string) {
	t.Helper()
	if _, err := conn.Query("SELECT a FROM t"); !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), want) {
		t.Fatalf("got %v, want a protocol error about %q", err, want)
	}
	if _, err := conn.Query("SELECT 1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("the desynced connection accepted a query: %v", err)
	}
}

func row(n int64) wire.DataRow { return wire.DataRow{Values: []sqlval.Value{sqlval.NewInt(n)}} }

// A response group carries at most one Provenance frame: a second one would
// silently replace the first's versions, and with them what every lineage
// position means.
func TestSecondProvenanceFramePoisons(t *testing.T) {
	prov := wire.Provenance{Versions: oneVersion(), Lineage: [][]int32{{0}}}
	conn := scriptedConn(t, wire.RowDescription{Columns: []string{"a"}}, row(7), prov, prov,
		wire.CommandComplete{}, wire.Ready{})
	queryRefused(t, conn, "second Provenance")
}

// Lineage lists pair with the rows received one for one: neither a row
// without its list nor a list without its row is padded over.
func TestLineageListCountMismatchPoisons(t *testing.T) {
	for name, frames := range map[string][]wire.Message{
		"fewer lists than rows": {row(7), row(8), wire.Provenance{Versions: oneVersion(), Lineage: [][]int32{{0}}}},
		"lists and no rows":     {wire.Provenance{Versions: oneVersion(), Lineage: [][]int32{{0}}}},
		"a row after the lists": {row(7), wire.Provenance{Versions: oneVersion(), Lineage: [][]int32{{0}}}, row(8)},
	} {
		t.Run(name, func(t *testing.T) {
			group := append([]wire.Message{wire.RowDescription{Columns: []string{"a"}}}, frames...)
			conn := scriptedConn(t, append(group, wire.CommandComplete{}, wire.Ready{})...)
			queryRefused(t, conn, "protocol error")
		})
	}
}

// A lineage position names a version of the frame's own set; one at or past
// its size fails the frame's decode.
func TestLineagePositionBeyondVersionsPoisons(t *testing.T) {
	conn := scriptedConn(t, wire.RowDescription{Columns: []string{"a"}}, row(7),
		wire.Provenance{Versions: oneVersion(), Lineage: [][]int32{{1}}}, wire.CommandComplete{}, wire.Ready{})
	queryRefused(t, conn, "lineage position 1 beyond the 1 versions")
}

// The grammar's happy path: rows, then one Provenance frame whose lists match
// them, resolve to the versions they name.
func TestProvenanceFrameFillsResult(t *testing.T) {
	conn := scriptedConn(t, wire.RowDescription{Columns: []string{"a"}}, row(7),
		wire.Provenance{Versions: oneVersion(), Lineage: [][]int32{{0}}}, wire.CommandComplete{StmtID: 3}, wire.Ready{})
	res, err := conn.Query("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if refs := res.LineageRefs(0); len(refs) != 1 || refs[0] != (engine.TupleRef{Table: "t", Row: 1, Version: 1}) {
		t.Fatalf("row 0 lineage %v", refs)
	}
	if vals, ok := res.TupleValues.Lookup(engine.TupleRef{Table: "t", Row: 1, Version: 1}); !ok || vals[0].Int() != 7 {
		t.Fatalf("version values %v, %v", vals, ok)
	}
}
