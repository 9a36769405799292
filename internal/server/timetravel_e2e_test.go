package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"ldv/internal/client"
	"ldv/internal/engine"
)

// renderRows flattens a result to one comparable string.
func renderRows(res *engine.Result) string {
	parts := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		parts[i] = strings.Join(cells, "|")
	}
	return strings.Join(parts, ";")
}

// TestAsOfStableUnderConcurrentWritesTCP pins a historical tick, then hammers
// the table from concurrent writer connections while reader connections
// repeatedly issue AS OF reads at that tick over the real wire protocol. The
// historical result must be byte-stable: every read renders identically to
// the baseline taken before the churn began.
func TestAsOfStableUnderConcurrentWritesTCP(t *testing.T) {
	const (
		rows     = 8
		writers  = 4
		readers  = 3
		writeOps = 40
		readOps  = 40
	)
	db := engine.NewDB(nil)
	if _, err := db.Exec("CREATE TABLE kv (k INT, v INT)", engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 0)", i), engine.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	s := New(db, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer l.Close()
	go s.Serve(netAcceptor{l})
	addr := l.Addr().String()

	dialConn := func(proc string) *client.Conn {
		t.Helper()
		conn, err := client.Dial(client.NetDialer{}, addr, client.Options{Proc: proc})
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}

	past := db.ClockNow()
	base := dialConn("asof-base")
	defer base.Close()
	baseRes, err := base.QueryAt("SELECT k, v FROM kv ORDER BY k", past)
	if err != nil {
		t.Fatal(err)
	}
	baseline := renderRows(baseRes)
	if baseline == "" {
		t.Fatal("empty baseline")
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := client.Dial(client.NetDialer{}, addr, client.Options{Proc: fmt.Sprintf("writer-%d", w)})
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for i := 0; i < writeOps; i++ {
				sql := fmt.Sprintf("UPDATE kv SET v = %d WHERE k = %d", i+1, (w+i)%rows)
				// Writers share keys: one that reaches a row another has
				// updated but not yet committed loses (first-updater-wins)
				// and, like any client, retries.
				_, err := conn.Exec(sql)
				for err != nil && strings.Contains(err.Error(), "could not serialize access") {
					_, err = conn.Exec(sql)
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			conn, err := client.Dial(client.NetDialer{}, addr, client.Options{Proc: fmt.Sprintf("reader-%d", r)})
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for i := 0; i < readOps; i++ {
				res, err := conn.QueryAt("SELECT k, v FROM kv ORDER BY k", past)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				if got := renderRows(res); got != baseline {
					errs <- fmt.Errorf("reader %d: AS OF %d drifted: %q != %q", r, past, got, baseline)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The head moved on: at least one update must be visible now.
	head, err := base.Query("SELECT k, v FROM kv ORDER BY k")
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(head) == baseline {
		t.Fatal("head read unchanged after concurrent updates")
	}
	// And the historical cut still answers, identically, after the dust
	// settles — including via the SQL-level clause.
	res, err := base.Query(fmt.Sprintf("SELECT k, v FROM kv ORDER BY k AS OF %d", past))
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRows(res); got != baseline {
		t.Fatalf("SQL AS OF = %q, want %q", got, baseline)
	}
}

// TestReenactOverWire commits a multi-statement transaction through a real
// client connection, mutates head state, then reenacts the transaction over
// the wire and checks the replay reproduces the original execution: per
// statement the replayed row count matches the recorded one, and the
// replayed SELECT renders exactly the rows the original SELECT returned.
func TestReenactOverWire(t *testing.T) {
	db := engine.NewDB(nil)
	if _, err := db.Exec("CREATE TABLE acct (id INT, bal INT)", engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO acct VALUES (1, 100)", engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	s := New(db, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer l.Close()
	go s.Serve(netAcceptor{l})

	conn, err := client.Dial(client.NetDialer{}, l.Addr().String(), client.Options{Proc: "reenact-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// The original transaction: a transfer plus its audit read.
	for _, sql := range []string{
		"BEGIN",
		"INSERT INTO acct VALUES (2, 0)",
		"UPDATE acct SET bal = 70 WHERE id = 1",
		"UPDATE acct SET bal = 30 WHERE id = 2",
	} {
		if _, err := conn.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	orig, err := conn.Query("SELECT id, bal FROM acct ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	wantSelect := make([]string, len(orig.Rows))
	for i, r := range orig.Rows {
		wantSelect[i] = fmt.Sprintf("(%s, %s)", r[0].String(), r[1].String())
	}

	// The transaction id: the newest entry in the history view.
	idRes, err := conn.Query("SELECT txn FROM ldv_stat_versions ORDER BY txn DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(idRes.Rows) == 0 {
		t.Fatal("ldv_stat_versions empty after a committed transaction")
	}
	txid := idRes.Rows[0][0].Int()

	// Wreck the head state so the replay provably reads history.
	if _, err := conn.Exec("UPDATE acct SET bal = -1"); err != nil {
		t.Fatal(err)
	}

	res, err := conn.Query(fmt.Sprintf("REENACT TRANSACTION %d", txid))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("reenacted %d statements, want 4", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r[5].Bool() {
			t.Fatalf("statement %s (%s) replay mismatch: rows=%s recorded=%s",
				r[0].String(), r[1].String(), r[3].String(), r[4].String())
		}
	}
	if got, want := res.Rows[3][6].String(), strings.Join(wantSelect, "; "); got != want {
		t.Fatalf("replayed SELECT = %q, original returned %q", got, want)
	}

	// The what-if variant over the wire: substitute the audit read.
	whatIf, err := conn.Query(fmt.Sprintf(
		"REENACT TRANSACTION %d SUBSTITUTE 4 WITH 'SELECT bal FROM acct WHERE id = 2'", txid))
	if err != nil {
		t.Fatal(err)
	}
	if got := whatIf.Rows[3][6].String(); got != "(30)" {
		t.Fatalf("substituted SELECT = %q, want (30)", got)
	}
}
