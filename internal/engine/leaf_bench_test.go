package engine_test

import (
	"fmt"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/tpch"
)

// What a plan leaf costs per row it walks and per row it selects, on the
// TPC-H data the repository benchmark's LDV applications run on (SF 0.005):
// an UPDATE by primary key (`ldv_app`'s update step, a probe of
// orders_pkey), a BETWEEN over lineitem (Q1-1's shape, an INTEGER conjunct
// kernel) and a LIKE '%…%' over orders (`sql_olap`'s like query, a compiled
// pattern). They live in the external test package because internal/tpch
// imports the engine.

func leafBenchDB(b *testing.B) (*engine.DB, tpch.Stats) {
	b.Helper()
	db := engine.NewDB(nil)
	st, err := tpch.Load(db, tpch.Config{SF: 0.005, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return db, st
}

// BenchmarkUpdateByPrimaryKey updates each order once, in key order, and
// starts over on a fresh database when the keys run out.
func BenchmarkUpdateByPrimaryKey(b *testing.B) {
	db, st := leafBenchDB(b)
	n := st.Counts.Orders
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%n == 0 {
			b.StopTimer()
			db, _ = leafBenchDB(b)
			b.StartTimer()
		}
		sql := fmt.Sprintf("UPDATE orders SET o_comment = 'bench update %d' WHERE o_orderkey = %d", i, i%n+1)
		if _, err := db.Exec(sql, engine.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func leafBenchQuery(b *testing.B, sql string) {
	db, _ := leafBenchDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(sql, engine.ExecOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanBetween(b *testing.B) {
	leafBenchQuery(b, "SELECT COUNT(*) FROM lineitem WHERE l_suppkey BETWEEN 1 AND 1")
}

func BenchmarkLikeContains(b *testing.B) {
	leafBenchQuery(b, "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%regular%'")
}
