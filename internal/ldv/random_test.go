package ldv

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ldv/internal/client"
	"ldv/internal/engine"
	"ldv/internal/osim"
)

// TestRandomizedWorkloadRoundTrip is the pipeline's property test: for
// random DB workloads (inserts, selective and aggregate queries, updates,
// deletes), both package flavours must re-execute to byte-identical
// outputs on a fresh machine — whether the application spells its statements
// as text or issues a seeded share of them as Prepare + Exec(args…) and one
// burst through a Pipeline, a statement of which fails.
func TestRandomizedWorkloadRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			w := randomOps(seed)
			text, textStmts := runRandomized(t, seed, w, false)
			bound, boundStmts := runRandomized(t, seed, w, true)
			if text != bound || textStmts != boundStmts {
				t.Fatalf("seed %d: the app that prepares and pipelines reported\n%s(%d statements audited)\nthe all-text one\n%s(%d)",
					seed, bound, boundStmts, text, textStmts)
			}
		})
	}
}

// op is one generated statement in both spellings: sql binds args to its `?`
// placeholders, Text carries them as literals.
type op struct {
	sql      string
	args     []any
	prepared bool // issued as Prepare + Exec by the app that binds
}

func (o op) Text() string {
	text := o.sql
	for _, a := range o.args {
		lit := fmt.Sprint(a)
		if s, ok := a.(string); ok {
			lit = "'" + s + "'"
		}
		text = strings.Replace(text, "?", lit, 1)
	}
	return text
}

// workload is a statement list of which ops[burst:burst+burstLen] go out as
// one pipelined burst.
type workload struct {
	ops   []op
	burst int
}

const burstLen = 5

// randomOps builds a deterministic random statement list. Statements are
// generated up front so audit and replay issue identical SQL.
func randomOps(seed int64) workload {
	r := rand.New(rand.NewSource(seed))
	var w workload
	add := func(sql string, args ...any) {
		w.ops = append(w.ops, op{sql: sql, args: args, prepared: r.Intn(2) == 0})
	}
	nextKey := 1000
	burstAt := 5 + r.Intn(15)
	for i := 0; i < 25; i++ {
		if i == burstAt {
			// The second INSERT repeats the first one's key and fails; the
			// server still executes the UPDATE and the SELECT behind it.
			w.burst = len(w.ops)
			nextKey++
			add("INSERT INTO items VALUES (?, ?, ?)", nextKey, r.Intn(100), fmt.Sprintf("burst-%d", nextKey))
			add("SELECT count(*) FROM items WHERE score > ?", r.Intn(100))
			add("INSERT INTO items VALUES (?, ?, ?)", nextKey, r.Intn(100), "again")
			add("UPDATE items SET score = score + ? WHERE id = ?", 1+r.Intn(5), nextKey)
			add("SELECT id, score FROM items WHERE id = ?", nextKey)
		}
		switch r.Intn(5) {
		case 0:
			nextKey++
			add("INSERT INTO items VALUES (?, ?, ?)", nextKey, r.Intn(100), fmt.Sprintf("item-%d", nextKey))
		case 1:
			add("SELECT id, score FROM items WHERE score > ? ORDER BY id", r.Intn(100))
		case 2:
			add("SELECT count(*), SUM(score) FROM items WHERE score BETWEEN ? AND ?", r.Intn(50), 50+r.Intn(50))
		case 3:
			add("UPDATE items SET score = score + ? WHERE id = ?", 1+r.Intn(5), 1+r.Intn(20))
		case 4:
			add("DELETE FROM items WHERE id = ? AND score < ?", 1+r.Intn(20), r.Intn(30))
		}
	}
	// Always end with a deterministic full report.
	add("SELECT id, score, label FROM items ORDER BY id")
	return w
}

// randomApp runs the workload and reports every result to /report.txt. With
// bind it prepares what the workload marks and pipelines the burst; without,
// every statement is text — the burst too, reported the way a failed Flush
// reports: results up to the failure, the rest executed but dropped.
func randomApp(w workload, bind bool) App {
	return App{
		Binary: "/bin/random-workload",
		Libs:   ClientLibs(),
		Prog: func(p *osim.Process) error {
			conn, err := Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			var sb strings.Builder
			report := func(res *engine.Result) {
				for _, row := range res.Rows {
					for j, v := range row {
						if j > 0 {
							sb.WriteByte(',')
						}
						sb.WriteString(v.String())
					}
					sb.WriteByte('\n')
				}
				fmt.Fprintf(&sb, "-- affected %d\n", res.RowsAffected)
			}
			stmts := map[string]*client.Stmt{}
			prepare := func(sql string) (*client.Stmt, error) {
				if st := stmts[sql]; st != nil {
					return st, nil
				}
				st, err := conn.Prepare(sql)
				stmts[sql] = st
				return st, err
			}
			for i := 0; i < len(w.ops); i++ {
				o := w.ops[i]
				switch {
				case i == w.burst && bind:
					pipe := conn.Pipeline()
					for _, o := range w.ops[i : i+burstLen] {
						st, err := prepare(o.sql)
						if err != nil {
							return err
						}
						if err := pipe.Queue(st, o.args...); err != nil {
							return err
						}
					}
					results, err := pipe.Flush()
					if !errors.Is(err, client.ErrPipeline) {
						return fmt.Errorf("burst: %v, want ErrPipeline", err)
					}
					for _, res := range results {
						report(res)
					}
					i += burstLen - 1
				case i == w.burst:
					failed := false
					for _, o := range w.ops[i : i+burstLen] {
						res, err := conn.Query(o.Text())
						if failed = failed || err != nil; !failed {
							report(res)
						}
					}
					i += burstLen - 1
				case o.prepared && bind:
					st, err := prepare(o.sql)
					if err != nil {
						return err
					}
					res, err := st.Exec(o.args...)
					if err != nil {
						return err
					}
					report(res)
				default:
					res, err := conn.Query(o.Text())
					if err != nil {
						return err
					}
					report(res)
				}
			}
			return p.WriteFile("/report.txt", []byte(sb.String()))
		},
	}
}

// newItemsMachine boots a machine with the preloaded items table the random
// workloads run against.
func newItemsMachine(t *testing.T, seed int64) *Machine {
	t.Helper()
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DB.ExecScript(`
		CREATE TABLE items (id INTEGER PRIMARY KEY, score INTEGER, label TEXT);`,
		engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed * 977))
	for i := 1; i <= 20; i++ {
		if _, err := m.DB.Exec(fmt.Sprintf(
			"INSERT INTO items VALUES (%d, %d, 'preload-%d')", i, r.Intn(100), i),
			engine.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// runRandomized audits the workload, replays both package flavours against
// the audited report and returns it with the audited statement count.
func runRandomized(t *testing.T, seed int64, w workload, bind bool) (string, int) {
	t.Helper()
	apps := []App{randomApp(w, bind)}
	progs := map[string]osim.Program{apps[0].Binary: apps[0].Prog}

	m := newItemsMachine(t, seed)
	aud, err := Audit(m, apps)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Kernel.FS().ReadFile("/report.txt")
	if err != nil {
		t.Fatal(err)
	}

	included, err := BuildServerIncluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	excluded, err := BuildServerExcluded(m, aud, apps)
	if err != nil {
		t.Fatal(err)
	}
	repIncl, err := Replay(included, progs)
	if err != nil {
		t.Fatalf("seed %d included replay: %v", seed, err)
	}
	got, err := repIncl.Kernel.FS().ReadFile("/report.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("seed %d: server-included replay diverged\nwant:\n%s\ngot:\n%s", seed, want, got)
	}

	repExcl, err := Replay(excluded, progs)
	if err != nil {
		t.Fatalf("seed %d excluded replay: %v", seed, err)
	}
	got, err = repExcl.Kernel.FS().ReadFile("/report.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("seed %d: server-excluded replay diverged", seed)
	}

	if bind {
		// The same program binding another value is another execution: the
		// recorded answers are not its answers.
		other := workload{ops: slices.Clone(w.ops), burst: w.burst}
		for i, o := range w.ops { // a failed burst is this app's normal case, so not one of its statements
			if o.prepared && len(o.args) > 0 && (i < w.burst || i >= w.burst+burstLen) {
				other.ops[i].args = append([]any{-1}, o.args[1:]...)
				break
			}
		}
		app := randomApp(other, true)
		if _, err := Replay(excluded, map[string]osim.Program{app.Binary: app.Prog}); err == nil || !strings.Contains(err.Error(), "diverges from recorded") {
			t.Fatalf("seed %d: excluded replay of an app binding other values: %v", seed, err)
		}
	}
	return string(want), aud.StatementCount()
}
