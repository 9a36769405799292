package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/obs"
	obslog "ldv/internal/obs/log"
	"ldv/internal/osim"
	"ldv/internal/sqlval"
	"ldv/internal/wire"
)

// pathCase is one statement of the text ≡ prepared ≡ pipelined table.
type pathCase struct {
	sql     string
	lineage bool
	timed   bool // the last result column is a wall-clock time (EXPLAIN ANALYZE)
	fails   bool
}

// pathCases generates the statement stream: every literal comes from the
// seed, every kind of statement the path dispatches on is present, and each
// statement reads what the ones before it wrote.
func pathCases(seed int64) (setup string, cases []pathCase) {
	rng := rand.New(rand.NewSource(seed))
	owners := []string{"ann", "bob", "cy"}
	var sb strings.Builder
	sb.WriteString("CREATE TABLE acct (id INT PRIMARY KEY, owner TEXT, bal INT); INSERT INTO acct VALUES (0, 'zed', 0)")
	const n = 24
	for id := 1; id <= n; id++ { // one multi-row INSERT: a shape of its own in ldv_stat_statements
		fmt.Fprintf(&sb, ", (%d, '%s', %d)", id, owners[rng.Intn(len(owners))], rng.Intn(900))
	}
	pick := func() int { return 1 + rng.Intn(n) }
	cases = []pathCase{
		{sql: fmt.Sprintf("SELECT id, owner, bal FROM acct WHERE bal >= %d ORDER BY id", rng.Intn(500)), lineage: true},
		{sql: "SELECT owner, count(*), sum(bal) FROM acct GROUP BY owner ORDER BY owner", lineage: true},
		{sql: fmt.Sprintf("INSERT INTO acct VALUES (%d, '%s', %d)", n+1, owners[rng.Intn(len(owners))], rng.Intn(900)), lineage: true},
		{sql: fmt.Sprintf("UPDATE acct SET bal = bal + %d WHERE id = %d", 1+rng.Intn(50), pick()), lineage: true},
		{sql: fmt.Sprintf("DELETE FROM acct WHERE id = %d", pick()), lineage: true},
		{sql: fmt.Sprintf("CREATE TABLE memo%d (k INT PRIMARY KEY, note TEXT)", seed)},
		{sql: fmt.Sprintf("INSERT INTO memo%d SELECT id, owner FROM acct WHERE bal < %d", seed, 100+rng.Intn(400)), lineage: true},
		{sql: "BEGIN"},
		{sql: fmt.Sprintf("UPDATE acct SET owner = 'dee' WHERE bal > %d", 300+rng.Intn(400)), lineage: true},
		{sql: "SELECT count(*) FROM acct WHERE owner = 'dee'", lineage: true},
		{sql: "COMMIT"},
		{sql: fmt.Sprintf("INSERT INTO acct VALUES (%d, 'dup', 0)", n+1), lineage: true, fails: true},
		{sql: fmt.Sprintf("EXPLAIN ANALYZE SELECT owner, bal FROM acct WHERE id = %d", pick()), timed: true},
		{sql: "SELECT state, query FROM ldv_stat_activity"},
	}
	return sb.String(), cases
}

// pathResponse is one response group, as the client sees it.
type pathResponse struct {
	Columns []string
	Rows    [][]sqlval.Value
	Lineage [][]int32
	Tuples  []engine.TupleRef
	Values  [][]sqlval.Value
	Done    wire.CommandComplete
	Err     string
	InTxn   bool
}

func readPathResponse(t *testing.T, c net.Conn) pathResponse {
	t.Helper()
	var r pathResponse
	for {
		msg, err := wire.Read(c)
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case wire.RowDescription:
			r.Columns = m.Columns
		case wire.DataRow:
			r.Rows = append(r.Rows, m.Values)
		case wire.Provenance:
			r.Lineage, r.Tuples, r.Values = m.Lineage, m.Versions.Refs(), m.Versions.Values()
		case wire.CommandComplete:
			r.Done = m
		case wire.ParseComplete:
		case wire.Error:
			r.Err = m.Message
		case wire.Ready:
			r.InTxn = m.InTxn
			return r
		default:
			t.Fatalf("unexpected message %#v", msg)
		}
	}
}

// lockedBuffer collects a server's log while its session goroutine writes it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

// runPath sends the cases over one fresh server and connection by the given
// transport and returns the response groups and the slow-query lines.
func runPath(t *testing.T, transport, setup string, cases []pathCase) ([]pathResponse, []string, *Server) {
	t.Helper()
	db := engine.NewDB(nil)
	if _, err := db.ExecScript(setup, engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	var logs lockedBuffer
	s := New(db, obslog.New(&logs, obslog.LevelInfo))
	s.SetSlowQueryThreshold(1) // every statement is slow
	c, srv := net.Pipe()
	done := make(chan struct{})
	go func() { s.HandleConn(srv); close(done) }()
	if err := wire.Write(c, wire.Startup{Proc: "path:" + transport, Database: "test"}); err != nil {
		t.Fatal(err)
	}
	readPathResponse(t, c)

	send := func(m wire.Message) {
		t.Helper()
		if err := wire.Write(c, m); err != nil {
			t.Fatal(err)
		}
	}
	name := func(i int) string { return fmt.Sprintf("p%d", i) }
	parse := func(i int) {
		t.Helper()
		send(wire.Parse{Name: name(i), SQL: cases[i].sql})
		if r := readPathResponse(t, c); r.Err != "" {
			t.Fatalf("Parse %q: %s", cases[i].sql, r.Err)
		}
	}
	out := make([]pathResponse, len(cases))
	switch transport {
	case "text":
		for i, tc := range cases {
			send(wire.Query{SQL: tc.sql, WithLineage: tc.lineage})
			out[i] = readPathResponse(t, c)
		}
	case "prepared":
		for i, tc := range cases {
			parse(i)
			send(wire.Bind{Stmt: name(i)})
			send(wire.Execute{Stmt: name(i), WithLineage: tc.lineage})
			out[i] = readPathResponse(t, c)
		}
	case "pipelined":
		for i := range cases {
			parse(i)
		}
		// One burst of Bind/Execute pairs, written while the responses are
		// read: net.Pipe has no buffer to park either side in.
		var burst bytes.Buffer
		for i, tc := range cases {
			if err := wire.Write(&burst, wire.Bind{Stmt: name(i)}); err != nil {
				t.Fatal(err)
			}
			if err := wire.Write(&burst, wire.Execute{Stmt: name(i), Tag: uint64(i + 1), WithLineage: tc.lineage}); err != nil {
				t.Fatal(err)
			}
		}
		werr := make(chan error, 1)
		go func() { _, err := c.Write(burst.Bytes()); werr <- err }()
		for i := range cases {
			out[i] = readPathResponse(t, c)
			if !cases[i].fails && out[i].Done.Tag != uint64(i+1) {
				t.Errorf("pipelined %q: tag %d, want %d", cases[i].sql, out[i].Done.Tag, i+1)
			}
			out[i].Done.Tag = 0
		}
		if err := <-werr; err != nil {
			t.Fatal(err)
		}
	}
	send(wire.Terminate{})
	<-done
	c.Close()

	var slow []string
	for _, line := range strings.Split(logs.b.String(), "\n") {
		if strings.Contains(line, `msg="slow query"`) {
			slow = append(slow, line)
		}
	}
	return out, slow, s
}

var (
	slowLineShape = regexp.MustCompile(`^t=\S+ lvl=warn msg="slow query" sid=\d+ elapsed=\S+ fingerprint=[0-9a-f]{16} waits=none sql=.+$`)
	slowLineNoise = regexp.MustCompile(`^t=\S+ | sid=\d+ elapsed=\S+`)
)

// TestTextPreparedPipelinedTakeOnePath: the same generated statements sent as
// text Query frames, as Parse/Bind/Execute, and as one pipelined burst give
// the same response groups — rows, lineage, provenance tuples, counts, refs,
// logical times, fingerprint, error, transaction state — the same slow-query
// lines, one ldv_stat_statements entry per fingerprint counting all three
// executions, and an ldv_stat_activity that shows the asking session active
// on the asking statement.
func TestTextPreparedPipelinedTakeOnePath(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		setup, cases := pathCases(seed)
		obs.Reset()
		transports := []string{"text", "prepared", "pipelined"}
		var (
			want     []pathResponse
			wantSlow []string
			last     *Server
		)
		for _, tr := range transports {
			got, slow, s := runPath(t, tr, setup, cases)
			last = s
			for i, tc := range cases {
				if (got[i].Err != "") != tc.fails {
					t.Fatalf("seed %d %s %q: error %q, fails = %v", seed, tr, tc.sql, got[i].Err, tc.fails)
				}
				if tc.timed {
					for _, row := range got[i].Rows {
						row[len(row)-1] = sqlval.Null
					}
				}
			}
			if len(slow) != len(cases) {
				t.Fatalf("seed %d %s: %d slow-query lines for %d statements:\n%s", seed, tr, len(slow), len(cases), strings.Join(slow, "\n"))
			}
			for i := range slow {
				if !slowLineShape.MatchString(slow[i]) {
					t.Errorf("seed %d %s: slow-query line %q does not have the documented shape", seed, tr, slow[i])
				}
				slow[i] = slowLineNoise.ReplaceAllString(slow[i], "")
			}
			if want == nil {
				want, wantSlow = got, slow
				continue
			}
			for i, tc := range cases {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("seed %d %q: %s\n%+v\n!= text\n%+v", seed, tc.sql, tr, got[i], want[i])
				}
				if slow[i] != wantSlow[i] {
					t.Errorf("seed %d %q: %s slow-query line\n%s\n!= text\n%s", seed, tc.sql, tr, slow[i], wantSlow[i])
				}
			}
		}

		// What the table itself must show, whatever the transport.
		perFingerprint := map[string]int64{}
		for i, tc := range cases {
			r := want[i]
			switch {
			case tc.fails:
				continue
			case tc.lineage && strings.HasPrefix(tc.sql, "SELECT") && (len(r.Rows) == 0 || len(r.Lineage) != len(r.Rows) || len(r.Tuples) == 0):
				t.Errorf("seed %d %q: %d rows, %d lineage rows, %d provenance tuples", seed, tc.sql, len(r.Rows), len(r.Lineage), len(r.Tuples))
			case strings.HasPrefix(tc.sql, "UPDATE") && (r.Done.RowsAffected == 0 || len(r.Tuples) == 0 || len(r.Done.WrittenRefs) == 0):
				t.Errorf("seed %d %q: affected %d, read %d, written %d", seed, tc.sql, r.Done.RowsAffected, len(r.Tuples), len(r.Done.WrittenRefs))
			case strings.Contains(tc.sql, "ldv_stat_activity"):
				active := []sqlval.Value{sqlval.NewString("active"), sqlval.NewString(tc.sql)}
				if len(r.Rows) != 1 || !reflect.DeepEqual(r.Rows[0], active) {
					t.Errorf("seed %d: ldv_stat_activity = %v, want the asking session active on %q", seed, r.Rows, tc.sql)
				}
			}
			if r.InTxn != (tc.sql == "BEGIN" || strings.Contains(tc.sql, "'dee'")) {
				t.Errorf("seed %d %q: in transaction = %v", seed, tc.sql, r.InTxn)
			}
			perFingerprint[r.Done.Fingerprint] += int64(len(transports))
		}
		dup := want[2].Done.Fingerprint // the failing INSERT shares the first one's shape
		perFingerprint[dup] += int64(len(transports))
		stats := map[string][2]int64{}
		db := last.DB()
		res, err := db.Exec("SELECT fingerprint, calls, errors FROM ldv_stat_statements", engine.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			stats[row[0].Str()] = [2]int64{row[1].Int(), row[2].Int()}
		}
		for fp, calls := range perFingerprint {
			wantErrs := int64(0)
			if fp == dup {
				wantErrs = int64(len(transports))
			}
			if got := stats[fp]; got != [2]int64{calls, wantErrs} {
				t.Errorf("seed %d: ldv_stat_statements[%s] calls, errors = %v, want [%d %d]", seed, fp, got, calls, wantErrs)
			}
		}
	}
}

// counters reads the process-wide counters a test compares before and after.
func counters(names ...string) map[string]int64 {
	snap := obs.TakeSnapshot()
	out := map[string]int64{}
	for _, n := range names {
		out[n] = snap.Counter(n)
	}
	return out
}

// TestPreparedCopyAndBindErrorsTakeTheStatementPath pins what merging the
// Query and Execute paths fixed: a prepared COPY is the text COPY, and an
// Execute that cannot run — wrong Bind arity, unknown name — is counted like
// any other failed statement, once.
func TestPreparedCopyAndBindErrorsTakeTheStatementPath(t *testing.T) {
	s := newTestServer(t)
	fs := osim.NewFS()
	fs.WriteFile("/import.csv", []byte("10,ten\n11,\\N\n"))
	s.SetFS(fs)
	c := dial(t, s, "p")
	defer c.Close()
	execute := func(name, sql string, args ...sqlval.Value) pathResponse {
		t.Helper()
		if sql != "" {
			if err := wire.Write(c, wire.Parse{Name: name, SQL: sql}); err != nil {
				t.Fatal(err)
			}
			if r := readPathResponse(t, c); r.Err != "" {
				t.Fatalf("Parse %q: %s", sql, r.Err)
			}
		}
		if err := wire.Write(c, wire.Bind{Stmt: name, Args: args}); err != nil {
			t.Fatal(err)
		}
		if err := wire.Write(c, wire.Execute{Stmt: name}); err != nil {
			t.Fatal(err)
		}
		return readPathResponse(t, c)
	}

	if r := execute("in", "COPY t FROM '/import.csv'"); r.Err != "" || r.Done.RowsAffected != 2 || len(r.Done.WrittenRefs) != 2 {
		t.Fatalf("prepared COPY FROM: %+v", r)
	}
	if rows, _, _ := query(t, c, "SELECT a FROM t WHERE b IS NULL", false); rows != 1 {
		t.Fatal("prepared COPY FROM loaded no NULL")
	}
	// The statement store is process-wide; other tests COPY TO as well.
	copyCalls := func() (calls, errs int64) {
		for _, row := range queryRows(t, c, "SELECT calls, errors FROM ldv_stat_statements WHERE query LIKE 'COPY t TO%'") {
			calls, errs = calls+row[0].Int(), errs+row[1].Int()
		}
		return
	}
	callsBefore, errsBefore := copyCalls()
	if r := execute("out", "COPY t TO '/prepared.csv'"); r.Err != "" || r.Done.RowsAffected != 4 {
		t.Fatalf("prepared COPY TO: %+v", r)
	}
	if _, _, serr := query(t, c, "COPY t TO '/text.csv'", false); serr != "" {
		t.Fatal(serr)
	}
	prepared, _ := fs.ReadFile("/prepared.csv")
	text, _ := fs.ReadFile("/text.csv")
	if len(text) == 0 || !bytes.Equal(prepared, text) {
		t.Fatalf("prepared COPY TO wrote\n%s\ntext COPY TO\n%s", prepared, text)
	}
	// COPY runs in the engine's execute entry and is recorded by its finish
	// step like every statement: both forms are one ldv_stat_statements row.
	if calls, errs := copyCalls(); calls != callsBefore+2 || errs != errsBefore {
		t.Errorf("ldv_stat_statements after two COPY TO: calls %d → %d, errors %d → %d", callsBefore, calls, errsBefore, errs)
	}

	obs.Reset()
	names := []string{"server.stmts", "server.errors", "engine.stmts", "engine.stmt_errors"}
	r := execute("one", "SELECT b FROM t WHERE a = ?") // Bind carries no value
	if !strings.Contains(r.Err, "wants 1 parameters, got 0") {
		t.Fatalf("arity mismatch: %+v", r)
	}
	if got := counters(names...); !reflect.DeepEqual(got, map[string]int64{"server.stmts": 1, "server.errors": 1, "engine.stmts": 1, "engine.stmt_errors": 1}) {
		t.Errorf("after an arity mismatch: %v", got)
	}
	if rows := queryRows(t, c, "SELECT calls, errors FROM ldv_stat_statements WHERE query = 'SELECT b FROM t WHERE a = ?'"); len(rows) != 1 || rows[0][0].Int() != 1 || rows[0][1].Int() != 1 {
		t.Errorf("ldv_stat_statements after an arity mismatch: %v", rows)
	}
	if r := execute("one", "", sqlval.NewInt(2)); r.Err != "" || len(r.Rows) != 1 || r.Rows[0][0].Str() != "y" {
		t.Fatalf("the statement still runs once bound: %+v", r)
	}

	before := counters(names...)
	if r := execute("nope", ""); !strings.Contains(r.Err, `unknown prepared statement "nope"`) {
		t.Fatalf("unknown name: %+v", r)
	}
	after := counters(names...)
	for _, n := range names {
		want := before[n]
		if strings.HasPrefix(n, "server.") {
			want++ // received and failed on the server; the engine never saw it
		}
		if after[n] != want {
			t.Errorf("after an unknown name: %s = %d, want %d", n, after[n], want)
		}
	}
}
