package client

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/server"
	"ldv/internal/sqlval"
	"ldv/internal/wire"
)

// A response group's rows are decoded into one slab, through buffers the
// connection reuses from group to group (wire.Reader). These tests pin what
// that must not change: a Result is the one the frames describe, read frame
// by frame through wire.Read; a Result kept by the application is never
// touched by a later statement; and a group costs the same allocations
// whatever its row count.

// frameConn is a connection whose reads come from a byte stream; only Read
// is used.
type frameConn struct {
	net.Conn
	r bytes.Reader
}

func (c *frameConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// readGroup reads one response group from b through a fresh connection's
// readResponse.
func readGroup(c *Conn, fc *frameConn, b []byte) (*engine.Result, error) {
	fc.r.Reset(b)
	rp := reply{res: &engine.Result{}}
	err := c.readResponse(fc, &rp)
	return rp.res, err
}

// encodeGroup writes frames back to back.
func encodeGroup(frames ...wire.Message) []byte {
	var b bytes.Buffer
	for _, m := range frames {
		_ = wire.Write(&b, m)
	}
	return b.Bytes()
}

// referenceResponse is the Result of one well-formed group built frame by
// frame through wire.Read — each row decoded on its own, each TEXT value a
// string of its own.
func referenceResponse(t *testing.T, b []byte) *engine.Result {
	t.Helper()
	r := bytes.NewReader(b)
	res := &engine.Result{}
	for {
		msg, err := wire.Read(r)
		if err != nil {
			t.Fatalf("reference read: %v", err)
		}
		switch m := msg.(type) {
		case wire.RowDescription:
			res.Columns = m.Columns
		case wire.DataRow:
			res.Rows = append(res.Rows, m.Values)
		case wire.Provenance:
			res.Lineage, res.TupleValues = m.Lineage, m.Versions
		case wire.CommandComplete:
			res.RowsAffected, res.StmtID, res.Start, res.End = m.RowsAffected, m.StmtID, m.Start, m.End
			res.WrittenRefs, res.CommitSeq, res.Fingerprint = m.WrittenRefs, m.CommitSeq, m.Fingerprint
		case wire.Ready:
			return res
		default:
			t.Fatalf("reference read: unexpected %T", msg)
		}
	}
}

// randValue is a value of any kind, NULL and the empty TEXT included.
func randValue(rnd *rand.Rand) sqlval.Value {
	switch rnd.Intn(7) {
	case 0:
		return sqlval.Null
	case 1:
		return sqlval.NewInt(rnd.Int63() - rnd.Int63())
	case 2:
		return sqlval.NewFloat(rnd.NormFloat64() * 1e6)
	case 3:
		return sqlval.NewBool(rnd.Intn(2) == 0)
	case 4:
		return sqlval.NewDateDays(int64(rnd.Intn(20000)))
	case 5:
		return sqlval.NewString("")
	default:
		return sqlval.NewString(strings.Repeat(string(rune('a'+rnd.Intn(26))), rnd.Intn(40)))
	}
}

// genGroup generates a valid response group from seed: any number of
// columns and rows (0 included), values of every kind, and sometimes a
// Provenance frame — with lineage lists when there are rows, as a query run
// with lineage has, or without, as a DML statement's read set has.
func genGroup(seed []byte) []byte {
	h := fnv.New64a()
	h.Write(seed)
	rnd := rand.New(rand.NewSource(int64(h.Sum64())))
	ncols, nrows := rnd.Intn(5), rnd.Intn(4)*rnd.Intn(12)
	cols := make([]string, ncols)
	for i := range cols {
		cols[i] = fmt.Sprintf("c%d", i)
	}
	frames := []wire.Message{wire.RowDescription{Columns: cols}}
	for range nrows {
		row := make([]sqlval.Value, ncols)
		for j := range row {
			row[j] = randValue(rnd)
		}
		frames = append(frames, wire.DataRow{Values: row})
	}
	if rnd.Intn(2) == 0 {
		nv := 1 + rnd.Intn(6)
		refs := make([]engine.TupleRef, nv)
		vals := make([][]sqlval.Value, nv)
		for i := range refs {
			refs[i] = engine.TupleRef{Table: fmt.Sprintf("t%d", i/3), Row: engine.RowID(i + 1), Version: uint64(rnd.Intn(9) + 1)}
			vals[i] = []sqlval.Value{randValue(rnd), randValue(rnd)}
		}
		var lineage [][]int32
		if nrows > 0 {
			lineage = make([][]int32, nrows)
			for i := range lineage {
				for range rnd.Intn(3) {
					lineage[i] = append(lineage[i], int32(rnd.Intn(nv)))
				}
			}
		}
		frames = append(frames, wire.Provenance{Versions: engine.NewVersionSet(refs, vals), Lineage: lineage})
	}
	frames = append(frames, wire.CommandComplete{RowsAffected: rnd.Intn(3), StmtID: rnd.Int63n(100), Start: 5, End: 9,
		WrittenRefs: []engine.TupleRef{{Table: "w", Row: 1, Version: 2}}, CommitSeq: uint64(rnd.Intn(2)), Fingerprint: "fp"},
		wire.Ready{})
	return encodeGroup(frames...)
}

// FuzzResponseGroup: readResponse never panics on arbitrary bytes, and on a
// valid group generated from the same bytes — read on the same connection,
// after whatever the arbitrary bytes left in its buffers — it returns the
// Result the frames describe, as wire.Read frame by frame builds it.
func FuzzResponseGroup(f *testing.F) {
	f.Add([]byte{})
	f.Add(genGroup([]byte("seed")))
	f.Add(encodeGroup(wire.RowDescription{Columns: []string{"a"}}, row(7), wire.CommandComplete{}, wire.Ready{}))
	f.Add(encodeGroup(wire.Error{Message: "no"}, wire.Ready{}))
	f.Add([]byte{wire.TagDataRow, 0, 0, 0, 2, 1, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, fc := &Conn{}, &frameConn{}
		c.nc = fc
		_, _ = readGroup(c, fc, data)
		g := genGroup(data)
		got, err := readGroup(c, fc, g)
		if err != nil {
			t.Fatalf("valid group refused: %v", err)
		}
		if want := referenceResponse(t, g); !reflect.DeepEqual(got, want) {
			t.Fatalf("slab result differs from the frame-by-frame one:\n got %+v\nwant %+v", got, want)
		}
	})
}

// orderRow is row i of an orders-shaped result: TPC-H orders' nine columns,
// four of them TEXT.
func orderRow(i int) []sqlval.Value {
	return []sqlval.Value{
		sqlval.NewInt(int64(i)), sqlval.NewInt(int64(1 + i%1500)), sqlval.NewString("FOP"[i%3 : i%3+1]),
		sqlval.NewFloat(float64(i) * 17.25), sqlval.NewDateDays(int64(8000 + i%2400)),
		sqlval.NewString(fmt.Sprintf("%d-PRIORITY", 1+i%5)), sqlval.NewString(fmt.Sprintf("Clerk#%09d", i%1000)),
		sqlval.NewInt(0), sqlval.NewString(fmt.Sprintf("final deposits of order %d sleep", i)),
	}
}

// ordersGroup is a response group of n orders-shaped rows.
func ordersGroup(n int) []byte {
	frames := []wire.Message{wire.RowDescription{Columns: []string{"o_orderkey", "o_custkey", "o_orderstatus",
		"o_totalprice", "o_orderdate", "o_orderpriority", "o_clerk", "o_shippriority", "o_comment"}}}
	for i := range n {
		frames = append(frames, wire.DataRow{Values: orderRow(i)})
	}
	return encodeGroup(append(frames, wire.CommandComplete{StmtID: 1, Start: 1, End: 2, Fingerprint: "0123456789abcdef"}, wire.Ready{})...)
}

// A group's rows cost no allocation each: reading 1 000 rows allocates what
// reading 10 does.
func TestReadResponseAllocatesPerGroup(t *testing.T) {
	measure := func(n int) float64 {
		g := ordersGroup(n)
		c, fc := &Conn{}, &frameConn{}
		c.nc = fc
		return testing.AllocsPerRun(20, func() {
			if res, err := readGroup(c, fc, g); err != nil || len(res.Rows) != n {
				t.Fatalf("%d rows: read %d, %v", n, len(res.Rows), err)
			}
		})
	}
	if a10, a1000 := measure(10), measure(1000); a1000 != a10 {
		t.Errorf("reading 10 rows allocates %.0f times, 1 000 rows %.0f", a10, a1000)
	}
}

func BenchmarkReadResponse(b *testing.B) {
	g := ordersGroup(1000)
	c, fc := &Conn{}, &frameConn{}
	c.nc = fc
	b.SetBytes(int64(len(g)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := readGroup(c, fc, g); err != nil {
			b.Fatal(err)
		}
	}
}

// withLineage asks for every statement's lineage, as the auditor does.
type withLineage struct{ BaseInterceptor }

func (withLineage) BeforeQuery(info *QueryInfo) (*engine.Result, error) {
	info.WithLineage = true
	return nil, nil
}

// keptImage is a deep copy of what a Result holds, by value: every row and
// every version as its encoded image, so that a byte a later statement wrote
// under a kept TEXT value would show.
type keptImage struct {
	cols     []string
	rows     [][]byte
	lineage  [][]int32
	refs     []engine.TupleRef
	versions [][]byte
}

func imageOf(res *engine.Result) keptImage {
	k := keptImage{cols: slices.Clone(res.Columns), refs: slices.Clone(res.TupleValues.Refs())}
	for _, r := range res.Rows {
		k.rows = append(k.rows, sqlval.EncodeRow(nil, r))
	}
	for _, l := range res.Lineage {
		k.lineage = append(k.lineage, slices.Clone(l))
	}
	for _, vals := range res.TupleValues.Values() {
		k.versions = append(k.versions, sqlval.EncodeRow(nil, vals))
	}
	return k
}

// keptServer serves an orders table whose first 100 rows are short and the
// rest carry long comments, so that a query over the rest returns more row
// bytes than the connection's buffers keep between groups.
func keptServer(t *testing.T) *server.Server {
	t.Helper()
	db := engine.NewDB(nil)
	var b strings.Builder
	b.WriteString("CREATE TABLE orders (o_orderkey INT PRIMARY KEY, o_clerk TEXT, o_comment TEXT, o_totalprice FLOAT);\n")
	for i := 1; i <= 1200; i++ {
		comment := fmt.Sprintf("short %d", i)
		if i > 100 {
			comment = strings.Repeat(fmt.Sprintf("long comment %d ", i), 20)
		}
		fmt.Fprintf(&b, "INSERT INTO orders VALUES (%d, 'Clerk#%09d', '%s', %d.5);\n", i, i%97, comment, i)
	}
	if _, err := db.ExecScript(b.String(), engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	return server.New(db, nil)
}

// A Result the application keeps is its own: later statements on the same
// connection — a response of the same size that reuses the buffers, a larger
// one that outgrows them, a DML statement, an error — leave its rows, TEXT
// values, lineage and version images as they were.
func TestKeptResultSurvivesLaterStatements(t *testing.T) {
	conn, err := Dial(pipeDialer{keptServer(t)}, "db", Options{Proc: "p", Interceptors: []Interceptor{withLineage{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	kept, err := conn.Query("SELECT o_orderkey, o_clerk, o_comment, o_totalprice FROM orders WHERE o_orderkey <= 50")
	if err != nil || len(kept.Rows) != 50 || kept.TupleValues.Len() != 50 {
		t.Fatalf("kept query: %d rows, %v", len(kept.Rows), err)
	}
	want := imageOf(kept)
	for _, sql := range []string{
		"SELECT o_orderkey, o_clerk, o_comment, o_totalprice FROM orders WHERE o_orderkey > 50 AND o_orderkey <= 100",
		"SELECT o_orderkey, o_clerk, o_comment, o_totalprice FROM orders WHERE o_orderkey > 100",
		"UPDATE orders SET o_comment = 'overwritten' WHERE o_orderkey <= 50",
		"SELECT o_orderkey, o_clerk, o_comment, o_totalprice FROM orders WHERE o_orderkey <= 50",
	} {
		if _, err := conn.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	if _, err := conn.Query("SELECT no_such_column FROM orders"); err == nil {
		t.Fatal("the bad statement succeeded")
	}
	if got := imageOf(kept); !reflect.DeepEqual(got, want) {
		t.Fatal("a kept result changed under later statements on its connection")
	}
}

// The same for the results of a pipelined burst, each its own group: later
// bursts and statements on the connection leave every one of them as it was.
func TestKeptPipelineResultsSurviveLaterStatements(t *testing.T) {
	conn, err := Dial(pipeDialer{keptServer(t)}, "db", Options{Proc: "p", Interceptors: []Interceptor{withLineage{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st, err := conn.Prepare("SELECT o_orderkey, o_clerk, o_comment FROM orders WHERE o_orderkey BETWEEN ? AND ?")
	if err != nil {
		t.Fatal(err)
	}
	burst := func(ranges ...[2]int) []*engine.Result {
		p := conn.Pipeline()
		for _, r := range ranges {
			if err := p.Queue(st, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.Flush()
		if err != nil || len(res) != len(ranges) {
			t.Fatalf("burst: %d results, %v", len(res), err)
		}
		return res
	}
	kept := burst([2]int{1, 10}, [2]int{11, 40}, [2]int{41, 100})
	var want []keptImage
	for _, res := range kept {
		want = append(want, imageOf(res))
	}
	burst([2]int{1, 30}, [2]int{31, 100}, [2]int{101, 1200})
	if _, err := conn.Exec("DELETE FROM orders WHERE o_orderkey <= 100"); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query("SELECT no_such_column FROM orders"); err == nil {
		t.Fatal("the bad statement succeeded")
	}
	burst([2]int{1, 1200})
	for i, res := range kept {
		if got := imageOf(res); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("kept pipelined result %d changed under later statements on its connection", i)
		}
	}
}
