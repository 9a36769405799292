package ldv

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/prov"
)

// TestUsedByIsTheLastRead pins what prov_usedby means (§VII-B: the last
// statement that read the version) against what the auditor records: after
// an audit, every stored version of every table, live or superseded,
// carries the id of the last statement with a hasRead edge to it in the
// audited trace, or 0 when no statement has one. The audits are the paper's
// running example, an app whose DML reads through every write path (INSERT …
// SELECT, UPDATE, DELETE, a subquery, a version written and superseded
// inside one transaction, a rolled-back one), the wide fixture, and the
// generated apps of TestRandomizedWorkloadRoundTrip, text and prepared.
func TestUsedByIsTheLastRead(t *testing.T) {
	check := func(t *testing.T, m *Machine, aud *Auditor) {
		t.Helper()
		if stamped := checkUsedByIsLastRead(t, m.DB, aud.Trace()); stamped == 0 {
			t.Error("no version is stamped: the audit read nothing")
		}
	}
	t.Run("alice", func(t *testing.T) {
		m, aud, _ := auditAlice(t)
		check(t, m, aud)
	})
	t.Run("dml", func(t *testing.T) {
		m, err := NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.DB.ExecScript(`
			CREATE TABLE src (id INTEGER PRIMARY KEY, v INTEGER);
			CREATE TABLE dst (id INTEGER PRIMARY KEY, v INTEGER);
			INSERT INTO src VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60);`, engine.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		aud, err := Audit(m, []App{shopApp("dml",
			"INSERT INTO dst SELECT id, v FROM src WHERE id <= 3",
			"UPDATE src SET v = v + 1 WHERE id >= 4",
			"SELECT v FROM src WHERE id = 5",
			"DELETE FROM dst WHERE v = (SELECT MAX(v) FROM src WHERE id <= 2)",
			"BEGIN",
			"UPDATE src SET v = 0 WHERE id = 6",
			"UPDATE src SET v = 1 WHERE id = 6",
			"COMMIT",
			"BEGIN",
			"UPDATE src SET v = 2 WHERE id = 1",
			"ROLLBACK",
			"SELECT COUNT(*) FROM dst WHERE v > 0",
		)})
		if err != nil {
			t.Fatal(err)
		}
		check(t, m, aud)
	})
	t.Run("wide", func(t *testing.T) {
		m, aud, _ := auditWide(t)
		check(t, m, aud)
	})
	for seed := int64(1); seed <= 6; seed++ {
		for _, bind := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/bind=%t", seed, bind), func(t *testing.T) {
				m := newItemsMachine(t, seed)
				aud, err := Audit(m, []App{randomApp(randomOps(seed), bind)})
				if err != nil {
					t.Fatal(err)
				}
				check(t, m, aud)
			})
		}
	}
}

// checkUsedByIsLastRead compares db's prov_usedby stamps with tr's hasRead
// edges and returns how many versions are stamped.
func checkUsedByIsLastRead(t *testing.T, db *engine.DB, tr *prov.Trace) (stamped int) {
	t.Helper()
	last := map[engine.TupleRef]int64{}
	for _, e := range tr.Edges() {
		if tr.EdgeLabel(e) != prov.EdgeHasRead {
			continue
		}
		ref, ok := TupleRefOfNode(tr.ID(e.From))
		kind, _, stmt, _ := prov.ParseID(tr.ID(e.To))
		if !ok || kind != prov.KindStmt {
			t.Fatalf("hasRead edge %s -> %s does not run from a tuple version to a statement", tr.ID(e.From), tr.ID(e.To))
		}
		last[ref] = max(last[ref], int64(stmt))
	}
	var wrong []string
	for _, name := range db.TableNames() {
		stamps, err := db.UsedBy(name)
		if err != nil {
			t.Fatal(err)
		}
		for ref, got := range stamps {
			if want := last[ref]; got != want {
				wrong = append(wrong, fmt.Sprintf("%v: prov_usedby %d, last read by statement %d", ref, got, want))
			}
			if got != 0 {
				stamped++
			}
			delete(last, ref)
		}
	}
	for ref := range last {
		wrong = append(wrong, fmt.Sprintf("the trace reads %v, which is not stored", ref))
	}
	if len(wrong) > 0 {
		slices.Sort(wrong)
		t.Errorf("%d versions disagree with the trace, among them:\n%s", len(wrong), strings.Join(wrong[:min(len(wrong), 5)], "\n"))
	}
	return stamped
}
