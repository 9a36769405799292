package server

import (
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/obs"
	"ldv/internal/osim"
	"ldv/internal/sqlval"
	"ldv/internal/wire"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	db := engine.NewDB(nil)
	if _, err := db.ExecScript(`
		CREATE TABLE t (a INT PRIMARY KEY, b TEXT);
		INSERT INTO t VALUES (1, 'x'), (2, 'y');`, engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	return New(db, nil)
}

// dial starts a session over net.Pipe and performs the startup handshake.
func dial(t *testing.T, s *Server, proc string) net.Conn {
	t.Helper()
	c, srv := net.Pipe()
	go s.HandleConn(srv)
	if err := wire.Write(c, wire.Startup{Proc: proc, Database: "test"}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Read(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(wire.Ready); !ok {
		t.Fatalf("expected Ready, got %#v", msg)
	}
	return c
}

// query runs one statement and collects the full response.
func query(t *testing.T, c net.Conn, sql string, withLineage bool) (rows int, lineageRows int, serverErr string) {
	t.Helper()
	if err := wire.Write(c, wire.Query{SQL: sql, WithLineage: withLineage}); err != nil {
		t.Fatal(err)
	}
	for {
		msg, err := wire.Read(c)
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case wire.RowDescription:
		case wire.DataRow:
			rows++
		case wire.LineageRow:
			lineageRows++
		case wire.TupleValues:
		case wire.CommandComplete:
		case wire.Error:
			serverErr = m.Message
		case wire.Ready:
			return rows, lineageRows, serverErr
		default:
			t.Fatalf("unexpected message %#v", msg)
		}
	}
}

func TestServerSessionLifecycle(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s, "proc:1")
	defer c.Close()
	rows, lineage, serr := query(t, c, "SELECT a FROM t ORDER BY a", false)
	if serr != "" || rows != 2 || lineage != 0 {
		t.Fatalf("rows=%d lineage=%d err=%q", rows, lineage, serr)
	}
	// Lineage per row when requested.
	rows, lineage, serr = query(t, c, "SELECT a FROM t", true)
	if serr != "" || rows != 2 || lineage != 2 {
		t.Fatalf("lineage rows = %d", lineage)
	}
	// Errors keep the session alive.
	_, _, serr = query(t, c, "SELECT nope FROM t", false)
	if serr == "" {
		t.Fatal("expected server error")
	}
	rows, _, serr = query(t, c, "SELECT a FROM t", false)
	if serr != "" || rows != 2 {
		t.Fatal("session broken after error")
	}
	// Clean termination.
	if err := wire.Write(c, wire.Terminate{}); err != nil {
		t.Fatal(err)
	}
}

func TestServerRejectsNonStartup(t *testing.T) {
	s := newTestServer(t)
	c, srv := net.Pipe()
	done := make(chan struct{})
	go func() { s.HandleConn(srv); close(done) }()
	if err := wire.Write(c, wire.Query{SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Read(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(wire.Error); !ok {
		t.Fatalf("expected protocol error, got %#v", msg)
	}
	c.Close()
	<-done
}

func TestServerUnexpectedMessageMidSession(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s, "p")
	defer c.Close()
	// A second Startup mid-session is a protocol error but keeps the session.
	if err := wire.Write(c, wire.Startup{Proc: "again"}); err != nil {
		t.Fatal(err)
	}
	msg, err := wire.Read(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(wire.Error); !ok {
		t.Fatalf("expected Error, got %#v", msg)
	}
	if msg, err = wire.Read(c); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(wire.Ready); !ok {
		t.Fatalf("expected Ready, got %#v", msg)
	}
	if rows, _, serr := query(t, c, "SELECT a FROM t", false); serr != "" || rows != 2 {
		t.Fatal("session unusable after protocol error")
	}
}

func TestServerProcBecomesProvP(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s, "proc:77")
	defer c.Close()
	if _, _, serr := query(t, c, "INSERT INTO t VALUES (3, 'z')", false); serr != "" {
		t.Fatal(serr)
	}
	res, err := s.DB().Exec("SELECT prov_p FROM t WHERE a = 3", engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Str() != "proc:77" {
		t.Fatalf("prov_p = %q", res.Rows[0][0].Str())
	}
}

func TestServerConcurrentSessions(t *testing.T) {
	s := newTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := dial(t, s, "p")
			defer c.Close()
			for j := 0; j < 10; j++ {
				if rows, _, serr := query(t, c, "SELECT a FROM t", false); serr != "" || rows < 2 {
					errs <- nil
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if len(errs) > 0 {
		t.Fatal("concurrent session failed")
	}
}

func TestServerEOFCloses(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s, "p")
	c.Close() // abrupt disconnect must not hang or panic the server
}

func TestServerCopyFromTo(t *testing.T) {
	s := newTestServer(t)
	fs := osim.NewFS()
	fs.WriteFile("/import.csv", []byte("10,ten\n11,\\N\n"))
	s.SetFS(fs)

	c := dial(t, s, "p")
	defer c.Close()
	rows, _, serr := query(t, c, "COPY t FROM '/import.csv'", false)
	if serr != "" {
		t.Fatalf("copy from: %s", serr)
	}
	_ = rows
	// 2 preloaded + 2 copied.
	if rows, _, _ := query(t, c, "SELECT a FROM t", false); rows != 4 {
		t.Fatalf("rows after copy = %d", rows)
	}
	// NULL round trip.
	if rows, _, _ := query(t, c, "SELECT a FROM t WHERE b IS NULL", false); rows != 1 {
		t.Fatal("NULL not loaded")
	}
	// Dump and re-load into a second table via the engine.
	if _, _, serr := query(t, c, "COPY t TO '/dump.csv'", false); serr != "" {
		t.Fatalf("copy to: %s", serr)
	}
	data, err := fs.ReadFile("/dump.csv")
	if err != nil || len(data) == 0 {
		t.Fatalf("dump missing: %v", err)
	}
	// Errors surface cleanly.
	if _, _, serr := query(t, c, "COPY t FROM '/missing.csv'", false); serr == "" {
		t.Fatal("missing file must error")
	}
	if _, _, serr := query(t, c, "COPY missing FROM '/import.csv'", false); serr == "" {
		t.Fatal("missing table must error")
	}
	// Without an FS, COPY is rejected.
	s2 := newTestServer(t)
	c2 := dial(t, s2, "p")
	defer c2.Close()
	if _, _, serr := query(t, c2, "COPY t TO '/x.csv'", false); serr == "" {
		t.Fatal("COPY without FS must error")
	}
}

// TestServerCopyRoundTripsAwkwardText: COPY TO then COPY FROM hands every
// TEXT value back byte for byte — commas, quotes, a CR LF, the empty string —
// with NULL beside them, and a file with CR LF line ends loads.
func TestServerCopyRoundTripsAwkwardText(t *testing.T) {
	s := newTestServer(t)
	fs := osim.NewFS()
	s.SetFS(fs)
	db := s.DB()
	if _, err := db.Exec("CREATE TABLE t2 (a INT PRIMARY KEY, b TEXT)", engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	texts := []sqlval.Value{
		sqlval.NewString("a\r\nb,\"c\""),
		sqlval.NewString("line\nbreak\rand\r\n"),
		sqlval.NewString(" leading, \"quoted\""),
		sqlval.NewString(""),
		sqlval.Null,
	}
	for i, v := range texts {
		if _, err := db.Exec("INSERT INTO t VALUES (?, ?)", engine.ExecOptions{Params: []sqlval.Value{sqlval.NewInt(int64(10 + i)), v}}); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, s, "p")
	defer c.Close()
	if _, _, serr := query(t, c, "COPY t TO '/dump.csv'", false); serr != "" {
		t.Fatalf("copy to: %s", serr)
	}
	if _, _, serr := query(t, c, "COPY t2 FROM '/dump.csv'", false); serr != "" {
		t.Fatalf("copy from: %s", serr)
	}
	rows := func(table string) []string {
		res, err := db.Exec("SELECT a, b FROM "+table+" ORDER BY a", engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = fmt.Sprintf("%v %q null=%v", r[0], r[1].String(), r[1].IsNull())
		}
		return out
	}
	if got, want := rows("t2"), rows("t"); len(want) != 2+len(texts) || !reflect.DeepEqual(got, want) {
		t.Fatalf("COPY TO then COPY FROM:\n got  %q\n want %q", got, want)
	}
	fs.WriteFile("/dos.csv", []byte("20,\"q,\"\r\n21,plain\r\n"))
	if _, _, serr := query(t, c, "COPY t2 FROM '/dos.csv'", false); serr != "" {
		t.Fatalf("copy from a CR LF file: %s", serr)
	}
	if got := rows("t2"); got[len(got)-2] != `20 "q," null=false` || got[len(got)-1] != `21 "plain" null=false` {
		t.Fatalf("CR LF file loaded as %q", got[len(got)-2:])
	}
}

func TestServerStatsRequest(t *testing.T) {
	s := newTestServer(t)
	c := dial(t, s, "proc:stats")
	defer c.Close()
	if _, _, serr := query(t, c, "SELECT a FROM t", false); serr != "" {
		t.Fatal(serr)
	}
	if err := wire.Write(c, wire.Stats{}); err != nil {
		t.Fatal(err)
	}
	var snap *obs.Snapshot
	for snap == nil {
		msg, err := wire.Read(c)
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case wire.StatsResult:
			snap, err = obs.ParseSnapshot(m.JSON)
			if err != nil {
				t.Fatalf("bad snapshot JSON: %v", err)
			}
		case wire.Error:
			t.Fatalf("server error: %s", m.Message)
		default:
			t.Fatalf("unexpected message %#v", msg)
		}
	}
	// The Ready that ends the Stats exchange.
	if msg, err := wire.Read(c); err != nil {
		t.Fatal(err)
	} else if _, ok := msg.(wire.Ready); !ok {
		t.Fatalf("expected Ready after StatsResult, got %#v", msg)
	}
	// Metrics are process-global, so assert floors, not exact values.
	if snap.Counter("server.sessions") < 1 {
		t.Fatal("server.sessions not counted")
	}
	if snap.Counter("server.stmts") < 1 {
		t.Fatal("server.stmts not counted")
	}
	if snap.Counter("engine.stmts") < 1 {
		t.Fatal("engine.stmts not counted")
	}
}
