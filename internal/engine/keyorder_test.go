package engine_test

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/tpch"
)

// keyedOrderDigests pins, per query, the FNV-64a digest of the result rows
// in order — each value with its kind — and of every row's lineage, on
// TPC-H at SF 0.002, seed 42. They were taken from the executor that keyed
// joins, groups and DISTINCT by formatted byte strings, before the typed
// hash table replaced it: the order of joined rows, groups and DISTINCT
// rows, and every lineage list, must not have moved.
var keyedOrderDigests = map[string]string{
	"Q1-1":           "3b0c75b732c5c6e7",
	"Q1-2":           "3b0c75b732c5c6e7",
	"Q1-3":           "3b0c75b732c5c6e7",
	"Q1-4":           "07aa059d97652bac",
	"Q1-5":           "624470a4ef113188",
	"Q2-1":           "29244bb41240ca1f",
	"Q2-2":           "fb3dedd1b06c2e38",
	"Q2-3":           "cbf29ce484222325",
	"Q2-4":           "cbf29ce484222325",
	"Q3-1":           "ed0f98391166ed7f",
	"Q3-2":           "15c6ed6cc66c9ca4",
	"Q3-3":           "a7ea75efea6977a1",
	"Q3-4":           "a7ea75efea6977a1",
	"Q4-1":           "8a7624f9603cace0",
	"Q4-2":           "8a7624f9603cace0",
	"Q4-3":           "8a7624f9603cace0",
	"Q4-4":           "816644bc37428ba3",
	"Q4-5":           "6d1ecff88e049325",
	"distinct":       "e30f7ca85cbbe078",
	"distinct2":      "843c85889603acfe",
	"dupbuild":       "84175b25f45b2374",
	"groupby":        "5cb116da3f3c0289",
	"groupby2":       "3f1d30ff5dea7b35",
	"groupby_having": "812267726d56a087",
	"inlist":         "4bd3072e7dc4cff9",
}

// keyedOrderQueries are the 18 Table II variants and a few more shapes of
// key: DISTINCT over one and two columns, GROUP BY over two columns with
// COUNT(DISTINCT), a join whose build side repeats keys, and an IN list
// that mixes INTEGER and FLOAT members.
func keyedOrderQueries(cfg tpch.Config) map[string]string {
	qs := map[string]string{
		"distinct":       "SELECT DISTINCT o_custkey FROM orders",
		"distinct2":      "SELECT DISTINCT c_name, o_orderstatus FROM customer c, orders o WHERE c.c_custkey = o.o_custkey",
		"groupby2":       "SELECT o_orderstatus, o_orderpriority, count(*), count(DISTINCT o_custkey) FROM orders GROUP BY o_orderstatus, o_orderpriority",
		"groupby":        "SELECT l_suppkey, count(*), count(DISTINCT l_partkey), SUM(l_quantity) FROM lineitem GROUP BY l_suppkey",
		"dupbuild":       "SELECT c.c_custkey, o.o_orderkey FROM customer c, orders o WHERE c.c_custkey = o.o_custkey AND o.o_orderkey < 200",
		"inlist":         "SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_suppkey IN (1, 3, 5.0, 7)",
		"groupby_having": "SELECT o_custkey, AVG(o_totalprice) FROM orders GROUP BY o_custkey HAVING count(*) > 1",
	}
	for _, q := range tpch.Queries(cfg) {
		qs[q.ID] = q.SQL
	}
	return qs
}

func TestKeyedOrderMatchesPinned(t *testing.T) {
	cfg := tpch.Config{SF: 0.002, Seed: 42}
	db := engine.NewDB(nil)
	if _, err := tpch.Load(db, cfg); err != nil {
		t.Fatal(err)
	}
	for id, sql := range keyedOrderQueries(cfg) {
		res, err := db.Exec(sql, engine.ExecOptions{WithLineage: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		h := fnv.New64a()
		for i, row := range res.Rows {
			for _, v := range row {
				fmt.Fprintf(h, "%s:%q|", v.Kind(), v.String())
			}
			fmt.Fprintf(h, "%v\n", res.LineageRefs(i))
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		if want := keyedOrderDigests[id]; got != want {
			t.Errorf("%s (%d rows): digest %s, want %s", id, len(res.Rows), got, want)
		}
	}
}
