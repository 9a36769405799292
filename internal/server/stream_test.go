package server

import (
	"bufio"
	"fmt"
	"io"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

// ordersResult is a result of n rows shaped like TPC-H orders: nine columns,
// four of them TEXT.
func ordersResult(n int) *engine.Result {
	res := &engine.Result{Columns: []string{"o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
		"o_orderdate", "o_orderpriority", "o_clerk", "o_shippriority", "o_comment"},
		StmtID: 1, Start: 1, End: 2, Fingerprint: "0123456789abcdef"}
	for i := range n {
		res.Rows = append(res.Rows, []sqlval.Value{
			sqlval.NewInt(int64(i)), sqlval.NewInt(int64(1 + i%1500)), sqlval.NewString("FOP"[i%3 : i%3+1]),
			sqlval.NewFloat(float64(i) * 17.25), sqlval.NewDateDays(int64(8000 + i%2400)),
			sqlval.NewString(fmt.Sprintf("%d-PRIORITY", 1+i%5)), sqlval.NewString(fmt.Sprintf("Clerk#%09d", i%1000)),
			sqlval.NewInt(0), sqlval.NewString(fmt.Sprintf("final deposits of order %d sleep", i)),
		})
	}
	return res
}

// streamResult encodes every frame in place in the connection's buffer:
// streaming 1 000 rows — which fills and flushes the buffer — allocates what
// streaming 10 does.
func TestStreamResultAllocatesPerGroup(t *testing.T) {
	measure := func(n int) float64 {
		res := ordersResult(n)
		out := bufio.NewWriterSize(io.Discard, 64<<10)
		return testing.AllocsPerRun(20, func() {
			if err := streamResult(out, res, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a10, a1000 := measure(10), measure(1000); a1000 != a10 {
		t.Errorf("streaming 10 rows allocates %.0f times, 1 000 rows %.0f", a10, a1000)
	}
}

func BenchmarkStreamResult(b *testing.B) {
	res := ordersResult(1000)
	out := bufio.NewWriterSize(io.Discard, 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := streamResult(out, res, 0); err != nil {
			b.Fatal(err)
		}
	}
}
