package client

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/server"
	"ldv/internal/wire"
)

// pipeDialer connects straight to an in-process server via net.Pipe.
type pipeDialer struct{ srv *server.Server }

func (d pipeDialer) Connect(string) (net.Conn, error) {
	c, s := net.Pipe()
	go d.srv.HandleConn(s)
	return c, nil
}

func newServerWithData(t *testing.T) *server.Server {
	t.Helper()
	db := engine.NewDB(nil)
	_, err := db.ExecScript(`
		CREATE TABLE sales (id INT PRIMARY KEY, price FLOAT);
		INSERT INTO sales VALUES (1, 5), (2, 11), (3, 14);`, engine.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return server.New(db, nil)
}

func TestClientServerQuery(t *testing.T) {
	srv := newServerWithData(t)
	conn, err := Dial(pipeDialer{srv}, "db", Options{Proc: "p1", Database: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	res, err := conn.Query("SELECT id, price FROM sales WHERE price > 10 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Lineage != nil {
		t.Error("lineage must be absent without request")
	}
	if res.StmtID == 0 || res.Start == 0 || res.End <= res.Start {
		t.Errorf("metadata: stmt=%d interval=[%d,%d]", res.StmtID, res.Start, res.End)
	}
}

func TestClientLineageOverWire(t *testing.T) {
	srv := newServerWithData(t)
	conn, err := Dial(pipeDialer{srv}, "db", Options{Proc: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := conn.Query("SELECT PROVENANCE SUM(price) AS ttl FROM sales WHERE price > 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Lineage) != 1 || len(res.Lineage[0]) != 2 {
		t.Fatalf("lineage = %v", res.Lineage)
	}
	for _, ref := range res.Lineage[0] {
		if ref.Table != "sales" {
			t.Errorf("ref table = %s", ref.Table)
		}
	}
}

func TestClientDMLMetadata(t *testing.T) {
	srv := newServerWithData(t)
	conn, _ := Dial(pipeDialer{srv}, "db", Options{Proc: "writer"})
	defer conn.Close()

	res, err := conn.Exec("INSERT INTO sales VALUES (4, 20)")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 || len(res.WrittenRefs) != 1 {
		t.Fatalf("insert meta: %+v", res)
	}
	// prov_p must reflect the client proc.
	res, _ = conn.Query("SELECT prov_p FROM sales WHERE id = 4")
	if res.Rows[0][0].Str() != "writer" {
		t.Errorf("prov_p = %q", res.Rows[0][0].Str())
	}
}

func TestClientServerError(t *testing.T) {
	srv := newServerWithData(t)
	conn, _ := Dial(pipeDialer{srv}, "db", Options{})
	defer conn.Close()
	if _, err := conn.Query("SELECT nope FROM sales"); err == nil {
		t.Fatal("expected server error")
	}
	// Session must remain usable after an error.
	if _, err := conn.Query("SELECT id FROM sales"); err != nil {
		t.Fatalf("session broken after error: %v", err)
	}
}

func TestClientClosedConn(t *testing.T) {
	srv := newServerWithData(t)
	conn, _ := Dial(pipeDialer{srv}, "db", Options{})
	conn.Close()
	conn.Close() // idempotent
	if _, err := conn.Query("SELECT 1"); err == nil {
		t.Fatal("query on closed conn must fail")
	}
}

// TestConnPoisonsWhenErrorIsNotFollowedByReady: every request is read by the
// one response loop, so a server Error whose Ready never arrives poisons the
// connection whatever was asked — a statement, a Stats request or a Parse.
// (Stats used to return the server error and leave the desynced stream in
// use.)
func TestConnPoisonsWhenErrorIsNotFollowedByReady(t *testing.T) {
	requests := map[string]func(*Conn) error{
		"Query":   func(c *Conn) error { _, err := c.Query("SELECT 1"); return err },
		"Stats":   func(c *Conn) error { _, err := c.Stats(); return err },
		"Traces":  func(c *Conn) error { _, err := c.Traces(); return err },
		"Prepare": func(c *Conn) error { _, err := c.Prepare("SELECT 1"); return err },
	}
	for name, request := range requests {
		cEnd, sEnd := net.Pipe()
		go func() {
			if _, err := wire.Read(sEnd); err != nil { // Startup
				return
			}
			_ = wire.Write(sEnd, wire.Ready{})
			if _, err := wire.Read(sEnd); err != nil { // the request
				return
			}
			_ = wire.Write(sEnd, wire.Error{Message: "boom"})
			sEnd.Close()
		}()
		conn, err := Dial(funcDialer(func() (net.Conn, error) { return cEnd, nil }), "db", Options{Proc: "p"})
		if err != nil {
			t.Fatal(err)
		}
		if err := request(conn); err == nil || !strings.Contains(err.Error(), "boom") || !errors.Is(err, ErrClosed) {
			t.Errorf("%s: error %v, want the server's message and ErrClosed", name, err)
		}
		if _, err := conn.Query("SELECT 1"); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: the desynced connection accepted a query: %v", name, err)
		}
		conn.Close()
	}
}

// recordingInterceptor captures the interceptor callback sequence.
type recordingInterceptor struct {
	BaseInterceptor
	mu      sync.Mutex
	queries []string
	results []*engine.Result
	forced  bool
}

func (r *recordingInterceptor) BeforeQuery(info *QueryInfo) (*engine.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.forced {
		info.WithLineage = true
	}
	r.queries = append(r.queries, info.SQL)
	return nil, nil
}

func (r *recordingInterceptor) AfterQuery(info QueryInfo, res *engine.Result, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.results = append(r.results, res)
}

func TestInterceptorForcesLineage(t *testing.T) {
	srv := newServerWithData(t)
	rec := &recordingInterceptor{forced: true}
	conn, _ := Dial(pipeDialer{srv}, "db", Options{Proc: "p", Interceptors: []Interceptor{rec}})
	defer conn.Close()
	res, err := conn.Query("SELECT id FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if res.Lineage == nil {
		t.Fatal("interceptor-forced lineage missing")
	}
	if len(rec.queries) != 1 || rec.results[0] != res {
		t.Fatal("interceptor callbacks wrong")
	}
}

// cannedInterceptor short-circuits every query with a fixed result.
type cannedInterceptor struct {
	BaseInterceptor
	res *engine.Result
}

func (c *cannedInterceptor) BeforeQuery(*QueryInfo) (*engine.Result, error) { return c.res, nil }

func TestInterceptorShortCircuit(t *testing.T) {
	canned := &engine.Result{Columns: []string{"x"}}
	conn, err := Dial(ReplayDialer{}, "nowhere", Options{Interceptors: []Interceptor{&cannedInterceptor{res: canned}}})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := conn.Query("SELECT anything")
	if err != nil || res != canned {
		t.Fatalf("short circuit failed: %v %v", res, err)
	}
}

func TestReplayDialerWithoutHandlerFails(t *testing.T) {
	conn, err := Dial(ReplayDialer{}, "nowhere", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query("SELECT 1"); err == nil {
		t.Fatal("unhandled replay query must fail")
	}
}

type failingInterceptor struct{ BaseInterceptor }

func (failingInterceptor) BeforeQuery(*QueryInfo) (*engine.Result, error) {
	return nil, fmt.Errorf("denied")
}

func TestInterceptorError(t *testing.T) {
	srv := newServerWithData(t)
	conn, _ := Dial(pipeDialer{srv}, "db", Options{Interceptors: []Interceptor{failingInterceptor{}}})
	defer conn.Close()
	if _, err := conn.Query("SELECT 1"); err == nil {
		t.Fatal("interceptor error must propagate")
	}
}

func TestClientThroughSimulatedOS(t *testing.T) {
	// Full integration: DB server running as a simulated process, client in
	// another simulated process, connect syscall traced by the kernel.
	k := osim.NewKernel()
	db := engine.NewDB(k.Clock())
	if _, err := db.ExecScript(`CREATE TABLE t (a INT); INSERT INTO t VALUES (7);`, engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, nil)
	l, err := k.Listen("ldv:5432")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)

	k.InstallBinary("/bin/app", 100, func(p *osim.Process) error {
		conn, err := Dial(p, "ldv:5432", Options{Proc: fmt.Sprintf("pid%d", p.PID)})
		if err != nil {
			return err
		}
		defer conn.Close()
		res, err := conn.Query("SELECT a FROM t")
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
			return fmt.Errorf("unexpected rows %v", res.Rows)
		}
		return nil
	})
	root := k.Start("harness")
	if err := root.Spawn("/bin/app"); err != nil {
		t.Fatal(err)
	}
	l.Close()
}
