package engine_test

import (
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ldv/internal/client"
	"ldv/internal/engine"
	"ldv/internal/server"
	"ldv/internal/sqlval"
	"ldv/internal/tpch"
)

// A lineage oracle over generated queries. Lineage is the system's central
// claim — Lineage[i] is exactly the stored versions result row i depends on
// ("Provenance as Dependency Analysis"; it is what makes a server-included
// package replay) — so it is checked here from outside the executor, four
// ways, for every query shape that propagates it differently:
//
//	(a) against a reference that never touches the lineage machinery: the
//	    query's own FROM/WHERE run as a plain SELECT of the hidden
//	    prov_rowid/prov_v attributes of every leaf, grouped by output row in
//	    the test;
//	(b) by dependency: the query over a database holding nothing but
//	    Lineage[i] reproduces row i, and deleting a version outside
//	    Lineage[i] does not take row i away;
//	(c) the result's version set holds values for exactly the referenced
//	    versions;
//	(d) a client over the wire sees what an in-process caller sees.
//
// The file reads version sets only through versionValues and versionRefs
// (versionset_access_test.go), so it runs unchanged against any
// representation of Result.TupleValues.

// oracleCase is one generated query with what the reference needs.
type oracleCase struct {
	name string
	sql  string // begins "SELECT "
	// ref is sql without grouping, DISTINCT, ORDER BY and LIMIT, selecting
	// nkey columns that identify the output row — they are also sql's first
	// nkey columns — and then one (prov_rowid, prov_v) pair per leaf.
	ref    string
	nkey   int
	leaves []string // table of each pair
	// sub, for queries with a subquery, selects (prov_rowid, prov_v) of the
	// subTable versions the subquery read: every output row depends on them.
	sub, subTable string
}

func oracleCases(rng *rand.Rand, cnt tpch.Counts) []oracleCase {
	q := 20 + rng.Intn(25)                         // l_quantity is 1..50
	p := 100000 + rng.Intn(200000)                 // o_totalprice
	s := 1 + rng.Intn(cnt.Supplier)                // l_suppkey
	c := cnt.Customer/4 + rng.Intn(cnt.Customer/2) // o_custkey
	b := 3000 + rng.Intn(6000)                     // c_acctbal is -999..9999
	k := 5 + rng.Intn(20)                          // n_nationkey is 0..24
	lo := 1 + rng.Intn(cnt.Orders-200)             // l_orderkey
	n := 1 + rng.Intn(8)
	prov := func(aliases ...string) string {
		var cols []string
		for _, a := range aliases {
			cols = append(cols, a+"prov_rowid", a+"prov_v")
		}
		return strings.Join(cols, ", ")
	}
	filter := fmt.Sprintf("FROM lineitem WHERE l_quantity > %d AND l_suppkey <= %d", q, s)
	join := fmt.Sprintf("FROM lineitem l, orders o, customer c WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey AND o.o_totalprice > %d AND l.l_quantity > %d", p, q)
	self := fmt.Sprintf("FROM nation a, nation b WHERE a.n_regionkey = b.n_regionkey AND a.n_nationkey <= b.n_nationkey AND b.n_nationkey < %d", k)
	group := fmt.Sprintf("FROM orders WHERE o_totalprice > %d", p)
	groupJoin := fmt.Sprintf("FROM orders o, customer c WHERE o.o_custkey = c.c_custkey AND c.c_acctbal > %d", b)
	global := fmt.Sprintf("FROM lineitem l, orders o WHERE l.l_orderkey = o.o_orderkey AND o.o_totalprice > %d", p)
	distinct := fmt.Sprintf("FROM lineitem WHERE l_quantity > %d", q)
	distinctJoin := fmt.Sprintf("FROM orders o, customer c WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > %d", p)
	inSub := fmt.Sprintf("FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > %d) AND o_totalprice > %d", b, p)
	sameSub := fmt.Sprintf("FROM orders WHERE o_totalprice < (SELECT MIN(o_totalprice) FROM orders WHERE o_orderpriority = '1-URGENT') * 3 AND o_custkey <= %d", c)
	topn := fmt.Sprintf("FROM orders WHERE o_custkey <= %d", c)
	rng2 := fmt.Sprintf("FROM lineitem WHERE l_orderkey BETWEEN %d AND %d", lo, lo+150)
	return []oracleCase{
		{name: "filter", nkey: 2, leaves: []string{"lineitem"},
			sql: "SELECT l_orderkey, l_linenumber, l_extendedprice " + filter,
			ref: "SELECT l_orderkey, l_linenumber, " + prov("") + " " + filter},
		{name: "join", nkey: 2, leaves: []string{"lineitem", "orders", "customer"},
			sql: "SELECT l.l_orderkey, l.l_linenumber, o.o_totalprice, c.c_name " + join,
			ref: "SELECT l.l_orderkey, l.l_linenumber, " + prov("l.", "o.", "c.") + " " + join},
		{name: "self-join", nkey: 2, leaves: []string{"nation", "nation"},
			sql: "SELECT a.n_nationkey, b.n_nationkey, a.n_name " + self,
			ref: "SELECT a.n_nationkey, b.n_nationkey, " + prov("a.", "b.") + " " + self},
		{name: "group", nkey: 1, leaves: []string{"orders"},
			sql: "SELECT o_orderpriority, COUNT(*), MAX(o_totalprice) " + group + " GROUP BY o_orderpriority",
			ref: "SELECT o_orderpriority, " + prov("") + " " + group},
		{name: "group-join", nkey: 1, leaves: []string{"orders", "customer"},
			sql: "SELECT c.c_mktsegment, COUNT(*), MIN(o.o_totalprice) " + groupJoin + " GROUP BY c.c_mktsegment",
			ref: "SELECT c.c_mktsegment, " + prov("o.", "c.") + " " + groupJoin},
		{name: "global-aggregate", nkey: 0, leaves: []string{"lineitem", "orders"},
			sql: "SELECT COUNT(*), SUM(l.l_quantity) " + global,
			ref: "SELECT " + prov("l.", "o.") + " " + global},
		{name: "distinct", nkey: 2, leaves: []string{"lineitem"},
			sql: "SELECT DISTINCT l_returnflag, l_linestatus " + distinct,
			ref: "SELECT l_returnflag, l_linestatus, " + prov("") + " " + distinct},
		{name: "distinct-join", nkey: 1, leaves: []string{"orders", "customer"},
			sql: "SELECT DISTINCT c.c_nationkey " + distinctJoin,
			ref: "SELECT c.c_nationkey, " + prov("o.", "c.") + " " + distinctJoin},
		{name: "in-subquery", nkey: 1, leaves: []string{"orders"},
			sql:      "SELECT o_orderkey, o_totalprice " + inSub,
			ref:      "SELECT o_orderkey, " + prov("") + " " + inSub,
			subTable: "customer", sub: fmt.Sprintf("SELECT %s FROM customer WHERE c_acctbal > %d", prov(""), b)},
		{name: "subquery-over-outer-table", nkey: 1, leaves: []string{"orders"},
			sql:      "SELECT o_orderkey, o_orderpriority " + sameSub,
			ref:      "SELECT o_orderkey, " + prov("") + " " + sameSub,
			subTable: "orders", sub: "SELECT " + prov("") + " FROM orders WHERE o_orderpriority = '1-URGENT'"},
		{name: "top-n", nkey: 1, leaves: []string{"orders"},
			sql: fmt.Sprintf("SELECT o_orderkey, o_totalprice %s ORDER BY o_totalprice DESC LIMIT %d", topn, n),
			ref: "SELECT o_orderkey, " + prov("") + " " + topn},
		{name: "top-n-groups", nkey: 1, leaves: []string{"lineitem"},
			sql: fmt.Sprintf("SELECT l_suppkey, SUM(l_quantity) AS q %s GROUP BY l_suppkey ORDER BY q DESC LIMIT %d", distinct, n),
			ref: "SELECT l_suppkey, " + prov("") + " " + distinct},
		{name: "index-range", nkey: 2, leaves: []string{"lineitem"},
			sql: "SELECT l_orderkey, l_linenumber, l_quantity " + rng2,
			ref: "SELECT l_orderkey, l_linenumber, " + prov("") + " " + rng2},
	}
}

func withProvenance(sql string) string {
	return strings.Replace(sql, "SELECT ", "SELECT PROVENANCE ", 1)
}

func rowKey(row []sqlval.Value, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = row[i].String()
	}
	return strings.Join(parts, "|")
}

func sortedRefs(refs []engine.TupleRef) []engine.TupleRef {
	out := append([]engine.TupleRef(nil), refs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return a.Version < b.Version
	})
	return out
}

func refSet(refs []engine.TupleRef) map[engine.TupleRef]bool {
	set := make(map[engine.TupleRef]bool, len(refs))
	for _, r := range refs {
		set[r] = true
	}
	return set
}

func mustRun(t *testing.T, x interface {
	Exec(string, engine.ExecOptions) (*engine.Result, error)
}, sql string, opts engine.ExecOptions) *engine.Result {
	t.Helper()
	res, err := x.Exec(sql, opts)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// oracleDB loads TPC-H and churns it, so that tables hold superseded and
// deleted versions and rows whose current version is not their first.
func oracleDB(t *testing.T, seed int64) (*engine.DB, tpch.Counts) {
	t.Helper()
	db := engine.NewDB(nil)
	stats, err := tpch.Load(db, tpch.Config{SF: 0.002, Seed: uint64(seed)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 40; i++ {
		o := 1 + rng.Intn(stats.Counts.Orders)
		mustRun(t, db, fmt.Sprintf("UPDATE orders SET o_totalprice = o_totalprice + 1000 WHERE o_orderkey = %d", o), engine.ExecOptions{})
		mustRun(t, db, fmt.Sprintf("UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = %d AND l_quantity < 50", 1+rng.Intn(stats.Counts.Orders)), engine.ExecOptions{})
		mustRun(t, db, fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey = %d AND l_linenumber = 1", 1+rng.Intn(stats.Counts.Orders)), engine.ExecOptions{})
		mustRun(t, db, fmt.Sprintf("UPDATE customer SET c_acctbal = c_acctbal + 1 WHERE c_custkey = %d", 1+rng.Intn(stats.Counts.Customer)), engine.ExecOptions{})
	}
	mustRun(t, db, "UPDATE nation SET n_comment = 'x' WHERE n_nationkey < 3", engine.ExecOptions{})
	mustRun(t, db, "CREATE INDEX ix_l_orderkey ON lineitem (l_orderkey) USING ordered", engine.ExecOptions{})
	return db, stats.Counts
}

// referenceLineage is (a)'s reference: output-row key -> the leaf versions
// of every pre-grouping row with that key, plus what the subquery read.
func referenceLineage(t *testing.T, db *engine.DB, c oracleCase) map[string]map[engine.TupleRef]bool {
	t.Helper()
	pairs := func(row []sqlval.Value, at int, tables []string, into map[engine.TupleRef]bool) {
		for i, table := range tables {
			into[engine.TupleRef{Table: table, Row: engine.RowID(row[at+2*i].Int()), Version: uint64(row[at+2*i+1].Int())}] = true
		}
	}
	sub := map[engine.TupleRef]bool{}
	if c.sub != "" {
		for _, row := range mustRun(t, db, c.sub, engine.ExecOptions{}).Rows {
			pairs(row, 0, []string{c.subTable}, sub)
		}
	}
	want := map[string]map[engine.TupleRef]bool{}
	for _, row := range mustRun(t, db, c.ref, engine.ExecOptions{}).Rows {
		key := rowKey(row, c.nkey)
		if want[key] == nil {
			want[key] = map[engine.TupleRef]bool{}
			for r := range sub {
				want[key][r] = true
			}
		}
		pairs(row, c.nkey, c.leaves, want[key])
	}
	return want
}

// restrictedDB holds the TPC-H schema and nothing but the given versions.
func restrictedDB(t *testing.T, res *engine.Result, refs []engine.TupleRef) *engine.DB {
	t.Helper()
	db := engine.NewDB(nil)
	for _, ddl := range tpch.Schemas() {
		mustRun(t, db, ddl, engine.ExecOptions{})
	}
	for _, ref := range sortedRefs(refs) {
		vals, ok := versionValues(res, ref)
		if !ok {
			t.Fatalf("no values for lineage ref %v", ref)
		}
		sent := false
		if err := db.RestoreRows(ref.Table, 1, func(row *engine.RestoredRow) (bool, error) {
			*row = engine.RestoredRow{ID: ref.Row, Version: ref.Version, Vals: vals}
			sent = !sent
			return sent, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func hasRow(res *engine.Result, row []sqlval.Value) bool {
	want := rowKey(row, len(row))
	for _, r := range res.Rows {
		if rowKey(r, len(r)) == want {
			return true
		}
	}
	return false
}

type pipeDialer struct{ srv *server.Server }

func (d pipeDialer) Connect(string) (net.Conn, error) {
	c, s := net.Pipe()
	go d.srv.HandleConn(s)
	return c, nil
}

func TestLineageOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		db, cnt := oracleDB(t, seed)
		conn, err := client.Dial(pipeDialer{server.New(db, nil)}, "", client.Options{Proc: "oracle"})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 7919))
		for _, c := range oracleCases(rng, cnt) {
			c := c
			t.Run(fmt.Sprintf("seed%d/%s", seed, c.name), func(t *testing.T) {
				res := mustRun(t, db, withProvenance(c.sql), engine.ExecOptions{})
				plain := mustRun(t, db, c.sql, engine.ExecOptions{})
				if len(res.Rows) == 0 || len(res.Lineage) != len(res.Rows) {
					t.Fatalf("%d rows, %d lineage entries: the case must return rows", len(res.Rows), len(res.Lineage))
				}
				if !reflect.DeepEqual(rowStrings(res), rowStrings(plain)) {
					t.Fatalf("PROVENANCE changed the rows:\n got  %v\n want %v", rowStrings(res), rowStrings(plain))
				}

				// (a) duplicate-free, and the reference's set.
				want := referenceLineage(t, db, c)
				used := map[engine.TupleRef]bool{}
				for i, lin := range res.Lineage {
					got := refSet(lin)
					if len(got) != len(lin) {
						t.Errorf("row %d: lineage lists a version twice: %v", i, lin)
					}
					if ref := want[rowKey(res.Rows[i], c.nkey)]; !reflect.DeepEqual(got, ref) {
						t.Errorf("row %d %v: lineage has %d versions, reference %d\n got  %v\n want %v",
							i, res.Rows[i], len(got), len(ref), sortedRefs(lin), sortedRefs(keys(ref)))
					}
					for r := range got {
						used[r] = true
					}
				}

				// (c) values for exactly the referenced versions, and the
				// stored ones.
				if got := refSet(versionRefs(res)); !reflect.DeepEqual(got, used) {
					t.Errorf("version set has %d versions, lineage refers to %d", len(got), len(used))
				}
				for r := range used {
					vals, ok := versionValues(res, r)
					stored, _ := db.LookupVersion(r)
					if !ok || !reflect.DeepEqual(vals, stored) {
						t.Errorf("version %v: values %v (present %v), stored %v", r, vals, ok, stored)
					}
				}

				// (b) on a few rows: sufficient, and nothing else necessary.
				for _, i := range rng.Perm(len(res.Rows))[:min(3, len(res.Rows))] {
					row, lin := res.Rows[i], res.Lineage[i]
					if over := mustRun(t, restrictedDB(t, res, lin), c.sql, engine.ExecOptions{}); !hasRow(over, row) {
						t.Errorf("row %d %v is not reproduced from its %d lineage versions alone: %v", i, row, len(lin), rowStrings(over))
					}
					in := refSet(lin)
					table := c.leaves[rng.Intn(len(c.leaves))]
					all, _, err := db.ScanAll(table)
					if err != nil {
						t.Fatal(err)
					}
					var outside []engine.TupleRef
					for _, r := range all {
						if !in[r] {
							outside = append(outside, r)
						}
					}
					if len(outside) == 0 {
						continue
					}
					victim := outside[rng.Intn(len(outside))]
					sess := db.NewSession()
					mustRun(t, sess, "BEGIN", engine.ExecOptions{})
					if d := mustRun(t, sess, fmt.Sprintf("DELETE FROM %s WHERE prov_rowid = %d", table, victim.Row), engine.ExecOptions{}); d.RowsAffected != 1 {
						t.Fatalf("deleting %v removed %d rows", victim, d.RowsAffected)
					}
					if without := mustRun(t, sess, c.sql, engine.ExecOptions{}); !hasRow(without, row) {
						t.Errorf("row %d %v disappeared when %v, outside its lineage, was deleted", i, row, victim)
					}
					mustRun(t, sess, "ROLLBACK", engine.ExecOptions{})
				}

				// (d) over the wire: row for row, ref for ref.
				wired, err := conn.Query(withProvenance(c.sql))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rowStrings(wired), rowStrings(res)) || len(wired.Lineage) != len(res.Lineage) {
					t.Fatalf("client sees %d rows, %d lineage entries; in-process %d, %d", len(wired.Rows), len(wired.Lineage), len(res.Rows), len(res.Lineage))
				}
				for i := range res.Lineage {
					if !reflect.DeepEqual(wired.Lineage[i], res.Lineage[i]) {
						t.Errorf("row %d: client lineage %v, in-process %v", i, wired.Lineage[i], res.Lineage[i])
					}
				}
				if got, want := sortedRefs(versionRefs(wired)), sortedRefs(versionRefs(res)); !reflect.DeepEqual(got, want) {
					t.Errorf("client version set %v, in-process %v", got, want)
				}
				for r := range used {
					got, _ := versionValues(wired, r)
					want, _ := versionValues(res, r)
					if len(got) != len(want) {
						t.Fatalf("version %v: client has %d values, in-process %d", r, len(got), len(want))
					}
					for j := range want {
						if !got[j].Equal(want[j]) && !(got[j].IsNull() && want[j].IsNull()) {
							t.Errorf("version %v column %d: client %v, in-process %v", r, j, got[j], want[j])
						}
					}
				}

				// (e) prepared, for the queries whose plan carries
				// init-plans: in process and over the wire, the first
				// execution and the one served from the plan cache report
				// what the text statement did.
				if c.sub == "" {
					return
				}
				ps, err := db.Prepare(withProvenance(c.sql))
				if err != nil {
					t.Fatal(err)
				}
				st, err := conn.Prepare(withProvenance(c.sql))
				if err != nil {
					t.Fatal(err)
				}
				sess := db.NewSession()
				defer sess.Close()
				for run := 0; run < 2; run++ {
					local, err := sess.ExecPrepared(ps, nil, engine.ExecOptions{})
					if err != nil {
						t.Fatal(err)
					}
					remote, err := st.Exec()
					if err != nil {
						t.Fatal(err)
					}
					for who, prep := range map[string]*engine.Result{"in process": local, "over the wire": remote} {
						if !reflect.DeepEqual(rowStrings(prep), rowStrings(res)) || !reflect.DeepEqual(prep.Lineage, res.Lineage) {
							t.Errorf("prepared run %d %s: %d rows, lineage equal %v; text %d rows",
								run, who, len(prep.Rows), reflect.DeepEqual(prep.Lineage, res.Lineage), len(res.Rows))
						}
						if got, want := sortedRefs(versionRefs(prep)), sortedRefs(versionRefs(res)); !reflect.DeepEqual(got, want) {
							t.Errorf("prepared run %d %s: version set %v, text %v", run, who, got, want)
						}
					}
				}
				if ps.CacheHits() < 1 {
					t.Errorf("the prepared statement never ran its cached plan (%d hits)", ps.CacheHits())
				}
			})
		}
		oracleDML(t, db, cnt, rng)
		conn.Close()
	}
}

// oracleDML checks (c) for reenactment reads: every version a DML statement
// reports as read has its stored values in the version set, which holds
// nothing else. Each statement runs in a transaction that is rolled back.
func oracleDML(t *testing.T, db *engine.DB, cnt tpch.Counts, rng *rand.Rand) {
	b := 3000 + rng.Intn(6000)
	for _, sql := range []string{
		fmt.Sprintf("UPDATE orders SET o_comment = 'audited' WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > %d)", b),
		"UPDATE orders SET o_clerk = 'top' WHERE o_totalprice >= (SELECT MAX(o_totalprice) FROM orders)",
		fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey = %d", 1+rng.Intn(cnt.Orders)),
		fmt.Sprintf("DELETE FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > %d)", b+500),
		"INSERT INTO region SELECT n_nationkey + 100, n_name, n_comment FROM nation WHERE n_regionkey = 1",
		"INSERT INTO region VALUES ((SELECT MAX(r_regionkey) FROM region) + 1, 'ATLANTIS', 'sunk')",
	} {
		sess := db.NewSession()
		mustRun(t, sess, "BEGIN", engine.ExecOptions{})
		res := mustRun(t, sess, sql, engine.ExecOptions{WithLineage: true})
		read := refSet(res.ReadRefs)
		if len(read) == 0 || res.RowsAffected == 0 {
			t.Errorf("%s: %d rows affected, %d versions read: the statement must do both", sql, res.RowsAffected, len(read))
		}
		if got := refSet(versionRefs(res)); !reflect.DeepEqual(got, read) {
			t.Errorf("%s: version set has %d versions, ReadRefs %d", sql, len(got), len(read))
		}
		for r := range read {
			vals, ok := versionValues(res, r)
			stored, _ := db.LookupVersion(r)
			if !ok || !reflect.DeepEqual(vals, stored) {
				t.Errorf("%s: read version %v: values %v (present %v), stored %v", sql, r, vals, ok, stored)
			}
		}
		mustRun(t, sess, "ROLLBACK", engine.ExecOptions{})
	}
}

func keys(set map[engine.TupleRef]bool) []engine.TupleRef {
	out := make([]engine.TupleRef, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	return out
}

func rowStrings(res *engine.Result) []string {
	out := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = rowKey(row, len(row))
	}
	return out
}
