package prov

import (
	"math/rand"
	"testing"
)

// wideStatement is one recorded query of an ldv_wide-shaped audit: the
// stored tuple versions it read and, per result row, the positions in that
// read set the row's lineage names.
type wideStatement struct {
	id      int64
	begin   uint64
	read    []wideTuple
	lineage [][]int
}

type wideTuple struct {
	table        string
	row, version uint64
}

// wideWorkload reproduces the shape of the trace the repository benchmark's
// ldv_wide workload audits (benchmark/README.md): four select-only
// statements over three tables, ~29 k tuple reads of ~15.6 k distinct
// versions, ~16 k result rows with one- to three-tuple lineage — 31.6 k
// nodes and 61 k edges.
func wideWorkload() []wideStatement {
	r := rand.New(rand.NewSource(42))
	tables := []string{"lineitem", "orders", "customer"}
	var out []wideStatement
	for s := 0; s < 4; s++ {
		st := wideStatement{id: int64(100 + s), begin: uint64(50 + 10*s)}
		for i := 0; i < 7350; i++ {
			st.read = append(st.read, wideTuple{
				table:   tables[i%len(tables)],
				row:     uint64(r.Intn(6000)),
				version: 1 + uint64(r.Intn(2)),
			})
		}
		for i := 0; i < 4000; i++ {
			lin := []int{r.Intn(len(st.read))}
			for len(lin) < 1+i%3 {
				lin = append(lin, r.Intn(len(st.read)))
			}
			st.lineage = append(st.lineage, lin)
		}
		out = append(out, st)
	}
	return out
}

// buildWide replays the recorded statements into a fresh trace the way
// ldv.Auditor.recordStatement does: typed keys in, no string ids.
func buildWide(tb testing.TB, stmts []wideStatement) *Trace {
	tr := NewTrace(CombinedDefault())
	proc, err := tr.Intern(ProcKey(3), TypeProcess)
	if err != nil {
		tb.Fatal(err)
	}
	traceID := tr.InternString("0102030405060708090a0b0c0d0e0f10")
	for _, st := range stmts {
		stmt, _ := tr.Intern(StmtKey(st.id), TypeQuery)
		tr.SetAttr(stmt, AttrSQL, "SELECT l_orderkey, o_orderdate FROM lineitem, orders WHERE l_orderkey = o_orderkey")
		iv := Interval{Begin: st.begin, End: st.begin + 5}
		if _, err := tr.Link(proc, stmt, EdgeRun, iv, traceID); err != nil {
			tb.Fatal(err)
		}
		nodes := make([]Ref, len(st.read))
		for i, t := range st.read {
			nodes[i], _ = tr.Intern(tr.TupleKey(t.table, t.row, t.version), TypeTuple)
			if _, err := tr.Link(nodes[i], stmt, EdgeHasRead, iv, traceID); err != nil {
				tb.Fatal(err)
			}
		}
		for i, lin := range st.lineage {
			res, _ := tr.Intern(ResultKey(st.id, i), TypeTuple)
			_, _ = tr.Link(stmt, res, EdgeHasReturned, iv, traceID)
			_, _ = tr.Link(res, proc, EdgeReadFrom, iv, traceID)
			for _, j := range lin {
				if err := tr.LinkDep(nodes[j], res); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return tr
}

func BenchmarkTraceBuild(b *testing.B) {
	stmts := wideWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr := buildWide(b, stmts); tr.NodeCount() == 0 {
			b.Fatal("empty trace")
		}
	}
}

func BenchmarkTraceMarshal(b *testing.B) {
	tr := buildWide(b, wideWorkload())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := tr.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
	}
}

func BenchmarkTraceUnmarshal(b *testing.B) {
	data, err := buildWide(b, wideWorkload()).Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data, CombinedDefault()); err != nil {
			b.Fatal(err)
		}
	}
}
