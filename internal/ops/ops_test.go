package ops

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ldv/internal/obs"
)

// testRegistry builds a registry with one counter, one gauge, one histogram,
// and two completed traces.
func testRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	obs.Describe("server.sessions_open", "Sessions currently open")
	obs.DescribePrefix("wire.msgs_out.", "Messages sent by kind")
	obs.DescribePrefix("engine.exec_ns.", "Statement latency by statement kind")
	reg.Counter("wire.msgs_out.Query").Add(7)
	reg.Gauge("server.sessions_open").Set(3)
	h := reg.Histogram("engine.exec_ns.select")
	h.Observe(100)
	h.Observe(2000)
	for i := 0; i < 2; i++ {
		root := reg.StartSpan("client.query")
		child := root.Child("server.query")
		child.End()
		root.End()
	}
	return reg
}

func get(t *testing.T, h http.Handler, path string) (int, string, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, string(body), rec.Result().Header.Get("Content-Type")
}

func TestMetricsEndpoint(t *testing.T) {
	h := Handler(testRegistry(t))
	code, body, ctype := get(t, h, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type = %q", ctype)
	}
	for _, want := range []string{
		"# HELP ldv_wire_msgs_out_Query Messages sent by kind",
		"# TYPE ldv_wire_msgs_out_Query counter",
		"ldv_wire_msgs_out_Query 7",
		"# HELP ldv_server_sessions_open Sessions currently open",
		"# TYPE ldv_server_sessions_open gauge",
		"ldv_server_sessions_open 3",
		"# HELP ldv_engine_exec_ns_select Statement latency by statement kind",
		"# TYPE ldv_engine_exec_ns_select histogram",
		"ldv_engine_exec_ns_select_count 2",
		"ldv_engine_exec_ns_select_sum 2100",
		`ldv_engine_exec_ns_select_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
	// A HELP line must precede its metric's TYPE line.
	if strings.Index(body, "# HELP ldv_server_sessions_open") > strings.Index(body, "# TYPE ldv_server_sessions_open") {
		t.Error("HELP line does not precede TYPE line")
	}
	// Bucket counts must be cumulative: each sample's value is >= the
	// previous bucket's on the same metric.
	var prev int64 = -1
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, "ldv_engine_exec_ns_select_bucket{le=\"") ||
			strings.Contains(line, "+Inf") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		prev = v
	}
	if prev < 0 {
		t.Fatal("no bucket lines found")
	}
}

func TestStatementsEndpoint(t *testing.T) {
	reg := testRegistry(t)
	reg.Statements().Record(0xabc, "SELECT a FROM t WHERE b = ?", 100, 50, 1000, 3, false, "deadbeef")
	reg.Statements().Record(0xabc, "SELECT a FROM t WHERE b = ?", 110, 40, 1100, 2, true, "")
	h := Handler(reg)
	code, body, ctype := get(t, h, "/statements")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("content type = %q", ctype)
	}
	for _, want := range []string{
		`"text":"SELECT a FROM t WHERE b = ?"`,
		`"calls":2`,
		`"errors":1`,
		`"rows":5`,
		`"last_trace_id":"deadbeef"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("statements output missing %q:\n%s", want, body)
		}
	}
}

func TestTracesEndpointJSON(t *testing.T) {
	h := Handler(testRegistry(t))
	code, body, ctype := get(t, h, "/traces")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if ctype != "application/json" {
		t.Errorf("content type = %q", ctype)
	}
	traces, err := obs.ParseTraces([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("traces = %d", len(traces))
	}
	if traces[0].Root != "client.query" || len(traces[0].Spans) != 2 {
		t.Errorf("unexpected trace: %+v", traces[0])
	}
}

func TestTracesEndpointLimit(t *testing.T) {
	h := Handler(testRegistry(t))
	_, body, _ := get(t, h, "/traces?limit=1")
	traces, err := obs.ParseTraces([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 1 {
		t.Fatalf("limited traces = %d", len(traces))
	}
	if code, _, _ := get(t, h, "/traces?limit=oops"); code != http.StatusBadRequest {
		t.Errorf("bad limit code = %d", code)
	}
	if code, _, _ := get(t, h, "/traces?limit=-1"); code != http.StatusBadRequest {
		t.Errorf("negative limit code = %d", code)
	}
}

func TestTracesEndpointWaterfall(t *testing.T) {
	h := Handler(testRegistry(t))
	code, body, ctype := get(t, h, "/traces?format=waterfall")
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("content type = %q", ctype)
	}
	if !strings.Contains(body, "client.query") || !strings.Contains(body, "server.query") {
		t.Errorf("waterfall missing spans:\n%s", body)
	}
}

func TestPprofIndex(t *testing.T) {
	h := Handler(testRegistry(t))
	if code, _, _ := get(t, h, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index code = %d", code)
	}
}

// FuzzTracesHandler throws arbitrary query strings at the /traces handler —
// it must never panic and must answer every request with 200 or 400.
func FuzzTracesHandler(f *testing.F) {
	f.Add("limit=1")
	f.Add("limit=oops")
	f.Add("limit=-1")
	f.Add("format=waterfall")
	f.Add("limit=1&format=waterfall")
	f.Add("limit=99999999999999999999")
	f.Add("%zz")
	reg := obs.NewRegistry()
	sp := reg.StartSpan("client.query")
	sp.Child("server.query").End()
	sp.End()
	f.Fuzz(func(t *testing.T, query string) {
		req := httptest.NewRequest("GET", "/traces", nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		ServeTraces(rec, req, reg)
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("query %q: code = %d", query, rec.Code)
		}
	})
}

// fakeRepl is a Replication stub: a replica that records promotion.
type fakeRepl struct{ promoted bool }

func (f *fakeRepl) ReplicationStatus() map[string]any {
	role := "replica"
	if f.promoted {
		role = "promoted"
	}
	return map[string]any{"role": role, "applied_seq": 42}
}

func (f *fakeRepl) Promote() error { f.promoted = true; return nil }

func TestReplicationEndpoint(t *testing.T) {
	fr := &fakeRepl{}
	h := Handler(testRegistry(t), WithReplication(fr))
	code, body, ctype := get(t, h, "/replication")
	if code != http.StatusOK {
		t.Fatalf("status code = %d", code)
	}
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("content type = %q", ctype)
	}
	if !strings.Contains(body, `"role":"replica"`) || !strings.Contains(body, `"applied_seq":42`) {
		t.Errorf("status body = %s", body)
	}
	// Promote requires POST.
	if code, _, _ := get(t, h, "/replication/promote"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET promote code = %d", code)
	}
	req := httptest.NewRequest("POST", "/replication/promote", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !fr.promoted {
		t.Fatalf("promote: code=%d promoted=%v", rec.Code, fr.promoted)
	}
	if _, body, _ := get(t, h, "/replication"); !strings.Contains(body, `"role":"promoted"`) {
		t.Errorf("post-promote body = %s", body)
	}
	// Without the option the endpoint is absent.
	if code, _, _ := get(t, Handler(testRegistry(t)), "/replication"); code != http.StatusNotFound {
		t.Errorf("unmounted /replication code = %d", code)
	}
}
