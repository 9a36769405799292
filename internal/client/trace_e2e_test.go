package client

import (
	"net"
	"net/http/httptest"
	"strings"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/obs"
	"ldv/internal/ops"
	"ldv/internal/osim"
	"ldv/internal/server"
)

// tcpAcceptor adapts a real net.Listener to the server's Acceptor.
type tcpAcceptor struct{ l net.Listener }

func (a tcpAcceptor) Accept() (net.Conn, error) { return a.l.Accept() }

// spanNames extracts the set of span names in a trace record.
func spanNames(tr obs.TraceRecord) map[string]bool {
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	return names
}

// findTrace locates the record with the given hex trace id.
func findTrace(traces []obs.TraceRecord, id string) (obs.TraceRecord, bool) {
	for _, tr := range traces {
		if tr.Trace.String() == id {
			return tr, true
		}
	}
	return obs.TraceRecord{}, false
}

// TestEndToEndTrace runs statements through a real TCP connection against a
// WAL-backed server and asserts the whole request path — client, server,
// engine stages, and WAL commit — lands in one trace under one trace id,
// retrievable both over the wire (Conn.Traces) and over the ops endpoint
// (GET /traces).
func TestEndToEndTrace(t *testing.T) {
	obs.Reset()
	db := engine.NewDB(nil)
	srv := server.New(db, nil)
	if _, err := srv.EnableDurability(osim.NewFS(), "/var/db", 0); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(tcpAcceptor{l})

	conn, err := Dial(NetDialer{}, l.Addr().String(), Options{Proc: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Exec("CREATE TABLE t (a INT, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	insRes, err := conn.Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	selRes, err := conn.Query("SELECT a, b FROM t WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if insRes.TraceID == "" || selRes.TraceID == "" {
		t.Fatalf("results missing trace ids: %q %q", insRes.TraceID, selRes.TraceID)
	}
	if insRes.TraceID == selRes.TraceID {
		t.Fatal("each statement must get its own trace")
	}
	// The same statement prepared, run once on its own and twice on a
	// pipeline: each execution is its own traced request.
	st, err := conn.Prepare("SELECT a, b FROM t WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	execRes, err := st.Exec(1)
	if err != nil {
		t.Fatal(err)
	}
	p := conn.Pipeline()
	for _, a := range []int{1, 2} {
		if err := p.Queue(st, a); err != nil {
			t.Fatal(err)
		}
	}
	piped, err := p.Flush()
	if err != nil || len(piped) != 2 {
		t.Fatalf("pipeline: %v, %v", piped, err)
	}

	// Over the wire: the Stats extension returns the flight recorder.
	traces, err := conn.Traces()
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := findTrace(traces, selRes.TraceID)
	if !ok {
		t.Fatalf("select trace %s not in flight recorder", selRes.TraceID)
	}
	names := spanNames(sel)
	for _, want := range []string{"client.query", "server.query", "engine.parse", "engine.plan", "engine.exec"} {
		if !names[want] {
			t.Errorf("select trace missing span %q (have %v)", want, names)
		}
	}
	ins, ok := findTrace(traces, insRes.TraceID)
	if !ok {
		t.Fatalf("insert trace %s not in flight recorder", insRes.TraceID)
	}
	if !spanNames(ins)["wal.commit"] {
		t.Errorf("insert trace missing wal.commit span (have %v)", spanNames(ins))
	}
	for i, res := range []*engine.Result{execRes, piped[0], piped[1]} {
		tr, ok := findTrace(traces, res.TraceID)
		if !ok {
			t.Fatalf("prepared execution %d: trace %q not in flight recorder", i, res.TraceID)
		}
		names := spanNames(tr)
		for _, want := range []string{"client.exec", "server.execute", "engine.plan", "engine.exec"} {
			if !names[want] {
				t.Errorf("prepared execution %d: trace missing span %q (have %v)", i, want, names)
			}
		}
		if tr.Root != "client.exec" {
			t.Errorf("prepared execution %d: root span = %q", i, tr.Root)
		}
	}
	if piped[0].TraceID == piped[1].TraceID || piped[0].TraceID == execRes.TraceID {
		t.Error("pipelined executions must each get their own trace")
	}
	if sel.Root != "client.query" {
		t.Errorf("root span = %q", sel.Root)
	}
	for _, sp := range sel.Spans {
		if sp.Trace != sel.Trace {
			t.Errorf("span %q carries foreign trace id %s", sp.Name, sp.Trace)
		}
	}

	// Over HTTP: the ops endpoint serves the same flight recorder.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/traces", nil)
	ops.Handler(obs.Default()).ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/traces code = %d", rec.Code)
	}
	httpTraces, err := obs.ParseTraces(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findTrace(httpTraces, selRes.TraceID); !ok {
		t.Error("select trace not served by GET /traces")
	}

	// The waterfall rendering names every stage under the trace header.
	var b strings.Builder
	sel.Waterfall(&b)
	wf := b.String()
	if !strings.Contains(wf, selRes.TraceID) {
		t.Errorf("waterfall missing trace id:\n%s", wf)
	}
	for _, want := range []string{"client.query", "server.query", "engine.exec"} {
		if !strings.Contains(wf, want) {
			t.Errorf("waterfall missing %q:\n%s", want, wf)
		}
	}
}

// TestNoTraceLeavesNoTrace pins the untraced baseline: a NoTrace connection
// sends no context and the server records no spans, so the flight recorder
// stays empty.
func TestNoTraceLeavesNoTrace(t *testing.T) {
	obs.Reset()
	db := engine.NewDB(nil)
	srv := server.New(db, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(tcpAcceptor{l})

	conn, err := Dial(NetDialer{}, l.Addr().String(), Options{Proc: "quiet", NoTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Exec("CREATE TABLE q (a INT)"); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Query("SELECT a FROM q")
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID != "" {
		t.Errorf("NoTrace result carries trace id %q", res.TraceID)
	}
	st, err := conn.Prepare("SELECT a FROM q WHERE a = ?")
	if err != nil {
		t.Fatal(err)
	}
	p := conn.Pipeline()
	if err := p.Queue(st, 1); err != nil {
		t.Fatal(err)
	}
	if piped, err := p.Flush(); err != nil || len(piped) != 1 || piped[0].TraceID != "" {
		t.Errorf("NoTrace pipeline: %v, %v", piped, err)
	}
	traces, err := conn.Traces()
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 0 {
		t.Errorf("flight recorder not empty: %d traces", len(traces))
	}
}
