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
// the fold of ldv.Auditor's log does: typed keys in, no string ids, and each
// statement's edges linked as runs — its reads, its result rows returned,
// the result rows read by the process.
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
		var key Key
		for i, t := range st.read {
			if i == 0 || t.table != st.read[i-1].table {
				key = tr.TupleKey(t.table, 0, 0)
			}
			key.A, key.B = t.row, t.version
			nodes[i], _ = tr.Intern(key, TypeTuple)
		}
		if err := tr.LinkRun(stmt, nodes, false, EdgeHasRead, iv, traceID); err != nil {
			tb.Fatal(err)
		}
		results := make([]Ref, len(st.lineage))
		for i, lin := range st.lineage {
			results[i], _ = tr.Intern(ResultKey(st.id, i), TypeTuple)
			for _, j := range lin {
				if err := tr.LinkDep(nodes[j], results[i]); err != nil {
					tb.Fatal(err)
				}
			}
		}
		if err := tr.LinkRun(stmt, results, true, EdgeHasReturned, iv, traceID); err != nil {
			tb.Fatal(err)
		}
		if err := tr.LinkRun(proc, results, false, EdgeReadFrom, iv, traceID); err != nil {
			tb.Fatal(err)
		}
	}
	return tr
}

// BenchmarkTraceBuild times the auditor's trace path on an ldv_wide-shaped
// audit: interning every node through the node index and linking each
// statement's edges as runs.
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
