package ldv

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/osim"
)

// TestRandomizedWorkloadRoundTrip is the pipeline's property test: for
// random DB workloads (inserts, selective and aggregate queries, updates,
// deletes), both package flavours must re-execute to byte-identical
// outputs on a fresh machine.
func TestRandomizedWorkloadRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRandomized(t, seed)
		})
	}
}

// randomOps builds a deterministic random statement list. Statements are
// generated up front so audit and replay issue identical SQL.
func randomOps(seed int64) []string {
	r := rand.New(rand.NewSource(seed))
	var ops []string
	nextKey := 1000
	for i := 0; i < 25; i++ {
		switch r.Intn(5) {
		case 0:
			nextKey++
			ops = append(ops, fmt.Sprintf("INSERT INTO items VALUES (%d, %d, 'item-%d')",
				nextKey, r.Intn(100), nextKey))
		case 1:
			ops = append(ops, fmt.Sprintf("SELECT id, score FROM items WHERE score > %d ORDER BY id", r.Intn(100)))
		case 2:
			ops = append(ops, fmt.Sprintf("SELECT count(*), SUM(score) FROM items WHERE score BETWEEN %d AND %d",
				r.Intn(50), 50+r.Intn(50)))
		case 3:
			ops = append(ops, fmt.Sprintf("UPDATE items SET score = score + %d WHERE id = %d",
				1+r.Intn(5), 1+r.Intn(20)))
		case 4:
			ops = append(ops, fmt.Sprintf("DELETE FROM items WHERE id = %d AND score < %d",
				1+r.Intn(20), r.Intn(30)))
		}
	}
	// Always end with a deterministic full report.
	ops = append(ops, "SELECT id, score, label FROM items ORDER BY id")
	return ops
}

func randomApp(ops []string) App {
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
			for _, op := range ops {
				res, err := conn.Query(op)
				if err != nil {
					return err
				}
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

func runRandomized(t *testing.T, seed int64) {
	t.Helper()
	ops := randomOps(seed)
	apps := []App{randomApp(ops)}
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
}
