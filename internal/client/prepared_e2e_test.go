package client

import (
	"errors"
	"fmt"
	"sync"
	"testing"
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
