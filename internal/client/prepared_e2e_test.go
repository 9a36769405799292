package client

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

func TestPreparedExec(t *testing.T) {
	srv := newServerWithData(t)
	conn, err := Dial(pipeDialer{srv}, "db", Options{Proc: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	st, err := conn.Prepare("SELECT id, price FROM sales WHERE price > ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 1 || st.Name() != "s1" || st.Fingerprint() == "" {
		t.Fatalf("stmt = %q params=%d fp=%q", st.Name(), st.NumParams(), st.Fingerprint())
	}
	res, err := st.Exec(10.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Int() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Re-execution with another argument; int converts too.
	res, err = st.Exec(12)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Arity and type errors are client-side, before any frame is sent.
	if _, err := st.Exec(); err == nil {
		t.Error("missing argument must fail")
	}
	if _, err := st.Exec(struct{}{}); err == nil {
		t.Error("unsupported argument type must fail")
	}
	// The registry view reports the statement and its call count.
	view, err := conn.Query("SELECT name, num_params, calls FROM ldv_stat_prepared")
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Rows) != 1 || view.Rows[0][0].Str() != "s1" || view.Rows[0][2].Int() != 2 {
		t.Fatalf("ldv_stat_prepared = %v", view.Rows)
	}
	// Close discards the server-side statement; further Execs fail.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(11.0); err == nil {
		t.Error("Exec after Close must fail")
	}
	// The connection itself stays usable.
	if _, err := conn.Query("SELECT id FROM sales"); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedSubqueryCacheHits: a prepared statement with subqueries is
// planned once — its second execution shows in ldv_stat_prepared as served
// from the plan cache — and still answers from the rows of each execution.
func TestPreparedSubqueryCacheHits(t *testing.T) {
	srv := newServerWithData(t)
	conn, err := Dial(pipeDialer{srv}, "db", Options{Proc: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st, err := conn.Prepare("SELECT id FROM sales WHERE price >= (SELECT MAX(price) FROM sales)" +
		" AND id IN (SELECT id FROM sales WHERE price > ?) AND EXISTS (SELECT id FROM sales) ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	first, err := st.Exec(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != 1 {
		t.Fatalf("rows = %v", first.Rows)
	}
	top := first.Rows[0][0].Int()
	if _, err := conn.Exec(fmt.Sprintf("DELETE FROM sales WHERE id = %d", top)); err != nil {
		t.Fatal(err)
	}
	second, err := st.Exec(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(second.Rows) != 1 || second.Rows[0][0].Int() == top {
		t.Fatalf("after deleting row %d the cached plan returned %v", top, second.Rows)
	}
	view, err := conn.Query("SELECT calls, cache_hits FROM ldv_stat_prepared")
	if err != nil {
		t.Fatal(err)
	}
	if len(view.Rows) != 1 || view.Rows[0][0].Int() != 2 || view.Rows[0][1].Int() != 1 {
		t.Fatalf("ldv_stat_prepared (calls, cache_hits) = %v, want [2 1]", view.Rows)
	}
}

func TestPrepareError(t *testing.T) {
	srv := newServerWithData(t)
	conn, err := Dial(pipeDialer{srv}, "db", Options{Proc: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Prepare("SELEKT nope"); err == nil {
		t.Fatal("Prepare of invalid SQL must fail")
	}
	// The session survives the failed Parse.
	if _, err := conn.Query("SELECT id FROM sales"); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineFlush(t *testing.T) {
	srv := newServerWithData(t)
	conn, err := Dial(pipeDialer{srv}, "db", Options{Proc: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	st, err := conn.Prepare("SELECT id FROM sales WHERE price > ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	p := conn.Pipeline()
	for _, bound := range []float64{4, 10, 13, 100} {
		if err := p.Queue(st, bound); err != nil {
			t.Fatal(err)
		}
	}
	results, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	for i, wantRows := range []int{3, 2, 1, 0} {
		if len(results[i].Rows) != wantRows {
			t.Fatalf("result %d: %d rows, want %d", i, len(results[i].Rows), wantRows)
		}
	}
	// A pipeline is reusable after a clean flush; an empty flush is a no-op.
	if res, err := p.Flush(); err != nil || res != nil {
		t.Fatalf("empty flush: %v, %v", res, err)
	}
	if err := p.Queue(st, 10.0); err != nil {
		t.Fatal(err)
	}
	if results, err := p.Flush(); err != nil || len(results) != 1 {
		t.Fatalf("reflush: %v, %v", results, err)
	}
}

// TestPipelineError pins the poisoning contract: a failed statement aborts
// the flush with ErrPipeline, results before the failure are returned, the
// pipeline refuses further use, but the connection stays usable.
func TestPipelineError(t *testing.T) {
	srv := newServerWithData(t)
	conn, err := Dial(pipeDialer{srv}, "db", Options{Proc: "p1"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	good, err := conn.Prepare("SELECT id FROM sales WHERE price > ? ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	// Parse succeeds (the table is resolved at execution), Execute fails.
	bad, err := conn.Prepare("SELECT id FROM nosuch")
	if err != nil {
		t.Fatal(err)
	}
	p := conn.Pipeline()
	if err := p.Queue(good, 4.0); err != nil {
		t.Fatal(err)
	}
	if err := p.Queue(bad); err != nil {
		t.Fatal(err)
	}
	if err := p.Queue(good, 10.0); err != nil {
		t.Fatal(err)
	}
	results, err := p.Flush()
	if !errors.Is(err, ErrPipeline) {
		t.Fatalf("Flush error = %v, want ErrPipeline", err)
	}
	if len(results) != 1 || len(results[0].Rows) != 3 {
		t.Fatalf("results before failure = %v", results)
	}
	// The pipeline is poisoned...
	if err := p.Queue(good, 4.0); !errors.Is(err, ErrPipeline) {
		t.Fatalf("Queue after poison = %v", err)
	}
	if _, err := p.Flush(); !errors.Is(err, ErrPipeline) {
		t.Fatalf("Flush after poison = %v", err)
	}
	// ...but the connection is not: the drain left the stream synced.
	if _, err := conn.Query("SELECT id FROM sales"); err != nil {
		t.Fatal(err)
	}
	if _, err := good.Exec(10.0); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavedPipelineAndQuery drives pipelined prepared executions and
// plain Queries through the same and concurrent sessions — the -race e2e of
// the v2 protocol sharing one server with the v1 path.
func TestInterleavedPipelineAndQuery(t *testing.T) {
	srv := newServerWithData(t)

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := Dial(pipeDialer{srv}, "db", Options{Proc: fmt.Sprintf("w%d", w)})
			if err != nil {
				errc <- err
				return
			}
			defer conn.Close()
			st, err := conn.Prepare("SELECT id FROM sales WHERE price > ? ORDER BY id")
			if err != nil {
				errc <- err
				return
			}
			for iter := 0; iter < 10; iter++ {
				// Plain v1 Query...
				res, err := conn.Query("SELECT id FROM sales WHERE price > 10 ORDER BY id")
				if err != nil {
					errc <- err
					return
				}
				if len(res.Rows) != 2 {
					errc <- fmt.Errorf("query: %d rows", len(res.Rows))
					return
				}
				// ...a single prepared Exec...
				res, err = st.Exec(13.0)
				if err != nil {
					errc <- err
					return
				}
				if len(res.Rows) != 1 {
					errc <- fmt.Errorf("exec: %d rows", len(res.Rows))
					return
				}
				// ...then a pipelined burst on the same session.
				p := conn.Pipeline()
				for _, bound := range []float64{4, 10, 13} {
					if err := p.Queue(st, bound); err != nil {
						errc <- err
						return
					}
				}
				results, err := p.Flush()
				if err != nil {
					errc <- err
					return
				}
				if len(results) != 3 || len(results[0].Rows) != 3 || len(results[2].Rows) != 1 {
					errc <- fmt.Errorf("pipeline results off: %d", len(results))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// chainRecorder renders every interceptor callback it sees, forcing lineage
// the way LDV's auditor does.
type chainRecorder struct {
	BaseInterceptor
	before, after []string
}

func (r *chainRecorder) BeforeQuery(info *QueryInfo) (*engine.Result, error) {
	info.WithLineage = true
	r.before = append(r.before, fmt.Sprintf("%s %v", info.SQL, info.Args))
	return nil, nil
}

func (r *chainRecorder) AfterQuery(info QueryInfo, res *engine.Result, err error) {
	if !info.WithLineage {
		err = fmt.Errorf("AfterQuery lost the interceptor's WithLineage (%v)", err)
	}
	outcome := fmt.Sprint("error: ", err)
	if err == nil {
		outcome = fmt.Sprintf("rows %v affected %d lineage %v", res.Rows, res.RowsAffected, res.Lineage)
	}
	r.after = append(r.after, fmt.Sprintf("%s %v -> %s", info.SQL, info.Args, outcome))
}

// TestTextPreparedPipelinedRunTheChain: the three ways to issue a statement
// are one request routine, so an interceptor sees the same statements with
// the same outcomes whichever was used — including lineage it asked for, a
// statement that fails, and the write a failed pipeline flush drains.
func TestTextPreparedPipelinedRunTheChain(t *testing.T) {
	stmts := []struct {
		text, sql string
		args      []any
	}{
		{"SELECT id FROM sales WHERE price > 10 ORDER BY id", "SELECT id FROM sales WHERE price > ? ORDER BY id", []any{10}},
		{"UPDATE sales SET price = price + 1 WHERE id = 2", "UPDATE sales SET price = price + ? WHERE id = ?", []any{1, 2}},
		{"SELECT id FROM nosuch", "SELECT id FROM nosuch", nil},
		{"INSERT INTO sales VALUES (4, 1.5)", "INSERT INTO sales VALUES (?, ?)", []any{4, 1.5}},
		{"SELECT SUM(price) FROM sales", "SELECT SUM(price) FROM sales", nil},
	}
	run := func(form string) *chainRecorder {
		rec := &chainRecorder{}
		conn, err := Dial(pipeDialer{newServerWithData(t)}, "db", Options{Proc: "p", Interceptors: []Interceptor{rec}})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		p := conn.Pipeline()
		for i, s := range stmts {
			if form == "text" {
				if _, err := conn.Query(s.text); (err != nil) != (i == 2) {
					t.Fatalf("text %q: %v", s.text, err)
				}
				continue
			}
			st, err := conn.Prepare(s.sql)
			if err != nil {
				t.Fatal(err)
			}
			if form == "pipelined" {
				err = p.Queue(st, s.args...)
			} else if _, err = st.Exec(s.args...); i == 2 && err != nil {
				err = nil
			}
			if err != nil {
				t.Fatalf("%s %q: %v", form, s.sql, err)
			}
		}
		if form == "pipelined" {
			if len(rec.before)+len(rec.after) != 0 {
				t.Fatalf("Queue ran the chain before Flush: %v %v", rec.before, rec.after)
			}
			if results, err := p.Flush(); !errors.Is(err, ErrPipeline) || len(results) != 2 {
				t.Fatalf("Flush: %d results, %v", len(results), err)
			}
		}
		return rec
	}
	text, prepared, pipelined := run("text"), run("prepared"), run("pipelined")
	if len(prepared.after) != len(stmts) || !strings.Contains(prepared.after[3], "affected 1") {
		t.Fatalf("prepared AfterQuery sequence: %q", prepared.after)
	}
	if fmt.Sprint(prepared.before) != fmt.Sprint(pipelined.before) || fmt.Sprint(prepared.after) != fmt.Sprint(pipelined.after) {
		t.Errorf("prepared and pipelined differ:\n%q\n%q\nvs\n%q\n%q", prepared.before, prepared.after, pipelined.before, pipelined.after)
	}
	for i, s := range stmts {
		if want := s.text + " []"; text.before[i] != want {
			t.Errorf("text BeforeQuery %d = %q, want %q", i, text.before[i], want)
		}
		if want := fmt.Sprintf("%s %v", s.sql, mustValues(t, s.args)); prepared.before[i] != want {
			t.Errorf("prepared BeforeQuery %d = %q, want %q", i, prepared.before[i], want)
		}
		_, textOutcome, _ := strings.Cut(text.after[i], " -> ")
		_, prepOutcome, _ := strings.Cut(prepared.after[i], " -> ")
		if textOutcome != prepOutcome {
			t.Errorf("statement %d: text outcome %q, prepared %q", i, textOutcome, prepOutcome)
		}
	}
	if !strings.Contains(text.after[0], "lineage [[") {
		t.Errorf("the SELECT carried no lineage: %q", text.after[0])
	}
}

func mustValues(t *testing.T, args []any) []sqlval.Value {
	t.Helper()
	vals, err := toValues(args)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// answeringInterceptor short-circuits every statement with its own SQL and
// arguments as the result.
type answeringInterceptor struct{ BaseInterceptor }

func (answeringInterceptor) BeforeQuery(info *QueryInfo) (*engine.Result, error) {
	return &engine.Result{Columns: []string{info.SQL}, Rows: [][]sqlval.Value{info.Args}}, nil
}

// TestShortCircuitAnswersAllThreeForms: with no server at all (ReplayDialer)
// Prepare is answered locally and Query, Stmt.Exec and Pipeline.Flush by the
// chain.
func TestShortCircuitAnswersAllThreeForms(t *testing.T) {
	conn, err := Dial(ReplayDialer{}, "nowhere", Options{Interceptors: []Interceptor{answeringInterceptor{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	check := func(form string, res *engine.Result, err error, sql string, arg int64) {
		t.Helper()
		if err != nil || res.Columns[0] != sql || (arg != 0) != (len(res.Rows[0]) == 1) || (arg != 0 && res.Rows[0][0].Int() != arg) {
			t.Fatalf("%s: %+v, %v", form, res, err)
		}
	}
	res, err := conn.Query("SELECT 1")
	check("text", res, err, "SELECT 1", 0)
	const sql = "SELECT id FROM sales WHERE price > ? ORDER BY id"
	st, err := conn.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 1 || st.Fingerprint() == "" {
		t.Fatalf("local Prepare: params=%d fingerprint=%q", st.NumParams(), st.Fingerprint())
	}
	if _, err := conn.Prepare("SELEKT nope"); err == nil {
		t.Error("local Prepare of invalid SQL must fail")
	}
	if _, err := st.Exec(); err == nil {
		t.Error("local Prepare must still check arity")
	}
	res, err = st.Exec(7)
	check("prepared", res, err, sql, 7)
	p := conn.Pipeline()
	for a := 1; a <= 3; a++ {
		if err := p.Queue(st, a); err != nil {
			t.Fatal(err)
		}
	}
	results, err := p.Flush()
	if err != nil || len(results) != 3 {
		t.Fatalf("pipelined: %v, %v", results, err)
	}
	for i, res := range results {
		check("pipelined", res, nil, sql, int64(i+1))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
