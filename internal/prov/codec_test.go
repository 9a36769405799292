package prov

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// describe renders everything a trace holds as sorted text lines keyed by
// string ids, so two traces compare equal exactly when they hold the same
// nodes, types, attributes, edges with intervals and request-trace ids, and
// dependencies — whatever their internal numbering.
func describe(tr *Trace) []string {
	var out []string
	for _, n := range tr.Nodes() {
		out = append(out, fmt.Sprintf("node %s type=%s label=%q binary=%q sql=%q trace=%q", n.ID, n.Type, n.Label,
			tr.Attr(n.Ref, AttrBinary), tr.Attr(n.Ref, AttrSQL), tr.Attr(n.Ref, AttrTrace)))
	}
	var edges []string
	for _, e := range tr.Edges() {
		edges = append(edges, fmt.Sprintf("edge %s -> %s %s %v trace=%q",
			tr.ID(e.From), tr.ID(e.To), tr.EdgeLabel(e), e.T, tr.String(e.Trace)))
	}
	slices.Sort(edges)
	var deps []string
	for _, d := range tr.Deps() {
		deps = append(deps, fmt.Sprintf("dep %s -> %s", tr.ID(d.From), tr.ID(d.To)))
	}
	slices.Sort(deps)
	return append(append(out, edges...), deps...)
}

// randomTrace builds a seeded random PBB+PLin trace: every key kind
// (free-form ids and table names with '/' and '@' included), every edge type
// the model admits, attributes, request-trace ids, repeated dependencies.
// The same seed gives the same trace; order seeds the insertion order.
func randomTrace(t testing.TB, seed, order int64) *Trace {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	type node struct{ id, typ, label, binary, sql, trace string }
	type edge struct {
		from, to int
		label    string
		iv       Interval
		trace    string
	}
	var nodes []node
	byType := map[string][]int{}
	add := func(n node) {
		byType[n.typ] = append(byType[n.typ], len(nodes))
		nodes = append(nodes, n)
	}
	tables := []string{"lineitem", "a/b", "t@x", ""}
	stmtTypes := []string{TypeQuery, TypeInsert, TypeUpdate, TypeDelete}
	for i := 0; i < 4+r.Intn(4); i++ {
		add(node{id: ProcID(uint64(i)), typ: TypeProcess, binary: []string{"", "/bin/app"}[r.Intn(2)]})
		add(node{id: FileID(fmt.Sprintf("/data/f%d", i)), typ: TypeFile})
		tid := []string{"", fmt.Sprintf("%032x", r.Int63())}[r.Intn(2)]
		add(node{id: StmtID(uint64(100 + i)), typ: stmtTypes[r.Intn(4)], sql: fmt.Sprintf("SELECT %d", i), trace: tid})
		add(node{id: ResultID(uint64(100+i), uint64(r.Intn(3))), typ: TypeTuple})
	}
	for i := 0; i < 10+r.Intn(20); i++ {
		add(node{id: TupleID(tables[r.Intn(len(tables))], uint64(r.Intn(50)), 1+uint64(r.Intn(3))), typ: TypeTuple})
	}
	for _, n := range []node{{id: "P", typ: TypeProcess, label: "paper process"}, {id: "A", typ: TypeFile},
		{id: "proc:007", typ: TypeFile, label: "not canonical, so free-form"}, {id: "t1", typ: TypeTuple, label: "t1"}} {
		add(n)
	}
	m := CombinedDefault()
	edgeTypes := slices.Clone(m.EdgeTypes) // the model lists them in map order
	slices.SortFunc(edgeTypes, func(a, b EdgeType) int {
		return strings.Compare(a.Label+a.From+a.To, b.Label+b.From+b.To)
	})
	var edges []edge
	for i := 0; i < 60; i++ {
		et := edgeTypes[r.Intn(len(edgeTypes))]
		from, to := byType[et.From], byType[et.To]
		if len(from) == 0 || len(to) == 0 {
			continue // this seed drew no statement of that type
		}
		b := uint64(r.Intn(20))
		e := edge{from: from[r.Intn(len(from))], to: to[r.Intn(len(to))], label: et.Label,
			iv: Interval{Begin: b, End: b + uint64(r.Intn(3))}}
		for _, end := range []int{e.from, e.to} {
			if nodes[end].trace != "" {
				e.trace = nodes[end].trace
			}
		}
		edges = append(edges, e)
	}
	entities := append(append([]int(nil), byType[TypeFile]...), byType[TypeTuple]...)
	var deps [][2]int
	for i := 0; i < 30; i++ {
		deps = append(deps, [2]int{entities[r.Intn(len(entities))], entities[r.Intn(len(entities))]})
	}
	deps = append(deps, deps[0], deps[1]) // recorded twice: still one dependency each

	// Insert in an order of its own. Duplicate ids (two result tuples drawn
	// alike) intern to one node, as in an audit.
	o := rand.New(rand.NewSource(order))
	tr := NewTrace(m)
	for _, i := range o.Perm(len(nodes)) {
		n := nodes[i]
		ref, err := tr.AddNode(n.id, n.typ, n.label)
		if err != nil {
			t.Fatal(err)
		}
		tr.SetAttr(ref, AttrBinary, n.binary)
		tr.SetAttr(ref, AttrSQL, n.sql)
		tr.SetAttr(ref, AttrTrace, n.trace)
	}
	for _, i := range o.Perm(len(edges)) {
		e := edges[i]
		if _, err := tr.AddEdgeTraced(nodes[e.from].id, nodes[e.to].id, e.label, e.iv, e.trace); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range o.Perm(len(deps)) {
		if err := tr.AddDep(nodes[deps[i][0]].id, nodes[deps[i][1]].id); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// Unmarshal(Marshal(tr)) holds what tr holds, Marshal is byte-stable across
// calls, and equal traces marshal to equal bytes whatever order they were
// built in.
func TestCodecRoundTripGenerated(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		tr := randomTrace(t, seed, seed)
		data, err := tr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		again, _ := tr.Marshal()
		if !bytes.Equal(data, again) {
			t.Fatalf("seed %d: Marshal differs between two calls", seed)
		}
		for order := int64(100); order < 103; order++ {
			other, _ := randomTrace(t, seed, order).Marshal()
			if !bytes.Equal(data, other) {
				t.Fatalf("seed %d: Marshal depends on insertion order %d", seed, order)
			}
		}
		back, err := Unmarshal(data, CombinedDefault())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want, got := describe(tr), describe(back); !slices.Equal(want, got) {
			t.Fatalf("seed %d: round trip changed the trace\nwant:\n%s\ngot:\n%s", seed,
				strings.Join(want, "\n"), strings.Join(got, "\n"))
		}
		if re, _ := back.Marshal(); !bytes.Equal(data, re) {
			t.Fatalf("seed %d: re-marshalling the decoded trace changed the bytes", seed)
		}
	}
}

// pinnedTrace is the small hand-built trace whose encoding is pinned below:
// process 1 (spawned from /bin/app) reads /in during [1,2], then runs query
// 7 during [3,4] under request trace "ab"; the query reads t/1@2 and returns
// one row, which the process reads and which depends on the tuple.
func pinnedTrace(t testing.TB) *Trace {
	tr := NewTrace(CombinedDefault())
	must := func(r Ref, err error) Ref {
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	proc := must(tr.Intern(ProcKey(1), TypeProcess))
	file := must(tr.Intern(tr.FileKey("/in"), TypeFile))
	stmt := must(tr.Intern(StmtKey(7), TypeQuery))
	tup := must(tr.Intern(tr.TupleKey("t", 1, 2), TypeTuple))
	res := must(tr.Intern(ResultKey(7, 0), TypeTuple))
	tr.SetAttr(proc, AttrBinary, "/bin/app")
	tr.SetAttr(stmt, AttrSQL, "SELECT 1")
	tr.SetAttr(stmt, AttrTrace, "ab")
	tid := tr.InternString("ab")
	link := func(from, to Ref, label string, b, e uint64, trace StrID) {
		if _, err := tr.Link(from, to, label, Interval{Begin: b, End: e}, trace); err != nil {
			t.Fatal(err)
		}
	}
	link(file, proc, EdgeReadFrom, 1, 2, 0)
	link(proc, stmt, EdgeRun, 3, 4, tid)
	link(tup, stmt, EdgeHasRead, 3, 4, tid)
	link(stmt, res, EdgeHasReturned, 3, 4, tid)
	link(res, proc, EdgeReadFrom, 3, 4, tid)
	if err := tr.LinkDep(tup, res); err != nil {
		t.Fatal(err)
	}
	return tr
}

// The pinned encoding, section by section (DESIGN.md "Trace format").
// Strings are 1 /bin/app, 2 /in, 3 "SELECT 1", 4 ab, 5 t; nodes are 0
// file:/in, 1 proc:1, 2 stmt:7, 3 tuple:t/1@2, 4 rtuple:7/0; labels are 0
// executed, 1 hasRead, 2 hasReturned, 3 hasWritten, 4 readFrom, 5 run.
var (
	pinHeader  = "LDVT\x01" + "\x08PBB+PLin"
	pinStrings = "\x05" + "\x08/bin/app" + "\x03/in" + "\x08SELECT 1" + "\x02ab" + "\x01t"
	pinNodes   = "\x05" + // groups: type, key kind, count, keys
		"\x04file\x02\x01" + "\x02" + // file:/in
		"\x07process\x01\x01" + "\x01" + // proc:1
		"\x05query\x03\x01" + "\x07" + // stmt:7
		"\x05tuple\x04\x01" + "\x05\x01\x02" + // tuple:t/1@2
		"\x05tuple\x05\x01" + "\x07\x00" // rtuple:7/0
	pinAttrs = "\x00" + // labels: none
		"\x01\x01\x01" + // binary: node 1 = /bin/app
		"\x01\x02\x03" + // sql: node 2 = SELECT 1
		"\x01\x02\x04" // trace: node 2 = ab
	pinLabels = "\x06" + "\x08executed" + "\x07hasRead" + "\x0bhasReturned" + "\x0ahasWritten" + "\x08readFrom" + "\x03run"
	pinEdges  = "\x05" + // begin delta, end-begin, from, to, label, trace
		"\x01\x01\x00\x01\x04\x00" + // [1,2] file:/in -> proc:1 readFrom
		"\x02\x01\x01\x02\x05\x04" + // [3,4] proc:1 -> stmt:7 run, trace ab
		"\x00\x01\x02\x04\x02\x04" + // [3,4] stmt:7 -> rtuple:7/0 hasReturned
		"\x00\x01\x03\x02\x01\x04" + // [3,4] tuple:t/1@2 -> stmt:7 hasRead
		"\x00\x01\x04\x01\x04\x04" // [3,4] rtuple:7/0 -> proc:1 readFrom
	pinDeps = "\x01" + "\x03\x04" // tuple:t/1@2 -> rtuple:7/0
	pinned  = pinHeader + pinStrings + pinNodes + pinAttrs + pinLabels + pinEdges + pinDeps
)

func TestCodecPinnedBytes(t *testing.T) {
	data, err := pinnedTrace(t).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != pinned {
		t.Fatalf("encoding changed:\n got %q\nwant %q", data, pinned)
	}
	back, err := Unmarshal([]byte(pinned), CombinedDefault())
	if err != nil {
		t.Fatal(err)
	}
	if want, got := describe(pinnedTrace(t)), describe(back); !slices.Equal(want, got) {
		t.Fatalf("pinned bytes decode to\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// The decoder treats its input as outside data: whatever is wrong with it,
// the answer is an error, never a panic or a trace that breaks the model.
func TestCodecRejects(t *testing.T) {
	m := CombinedDefault()
	for n := 0; n < len(pinned); n++ {
		if _, err := Unmarshal([]byte(pinned[:n]), m); err == nil {
			t.Errorf("prefix of %d bytes accepted", n)
		}
	}
	cases := []struct{ name, data, want string }{
		{"wrong magic", "LDVX" + pinned[4:], "bad magic"},
		{"old JSON trace", `{"model":"PBB+PLin","nodes":[],"edges":[]}`, "JSON trace"},
		{"wrong version", "LDVT\x02" + pinned[5:], "version 2"},
		{"wrong model", "LDVT\x01" + "\x03PBB" + pinned[len(pinHeader):], "does not match"},
		{"trailing bytes", pinned + "\x00", "trailing"},
		{"string count larger than the input", pinHeader + "\xff\xff\xff\xff\x0f" + pinned[len(pinHeader)+1:], "exceeds"},
		{"node count flipped up", pinHeader + pinStrings + strings.Replace(pinNodes, "\x05tuple\x05\x01", "\x05tuple\x05\x02", 1) + pinAttrs + pinLabels + pinEdges + pinDeps, ""},
		{"edge count flipped down", pinHeader + pinStrings + pinNodes + pinAttrs + pinLabels + "\x04" + pinEdges[1:] + pinDeps, ""},
		{"edge count flipped up", pinHeader + pinStrings + pinNodes + pinAttrs + pinLabels + "\x06" + pinEdges[1:] + pinDeps, ""},
		{"strings out of order", pinHeader + "\x05" + "\x03/in" + "\x08/bin/app" + pinStrings[14:] + pinNodes + pinAttrs + pinLabels + pinEdges + pinDeps, "ascending"},
		{"string index out of range", pinHeader + pinStrings + strings.Replace(pinNodes, "\x04file\x02\x01\x02", "\x04file\x02\x01\x06", 1) + pinAttrs + pinLabels + pinEdges + pinDeps, "out of range"},
		{"unknown node type", pinHeader + pinStrings + strings.Replace(pinNodes, "\x04file", "\x04fine", 1) + pinAttrs + pinLabels + pinEdges + pinDeps, "not part of model"},
		{"unknown key kind", pinHeader + pinStrings + strings.Replace(pinNodes, "\x04file\x02", "\x04file\x06", 1) + pinAttrs + pinLabels + pinEdges + pinDeps, "out of range"},
		{"node groups out of order", pinHeader + pinStrings + "\x05" + "\x07process\x01\x01\x01" + "\x04file\x02\x01\x02" + pinNodes[20:] + pinAttrs + pinLabels + pinEdges + pinDeps, "out of order"},
		{"repeated node", pinHeader + pinStrings + strings.Replace(pinNodes, "\x07process\x01\x01\x01", "\x07process\x01\x02\x01\x01", 1) + pinAttrs + pinLabels + pinEdges + pinDeps, "ascending"},
		{"attribute node out of range", pinHeader + pinStrings + pinNodes + "\x00\x01\x05\x01" + pinAttrs[4:] + pinLabels + pinEdges + pinDeps, "out of range"},
		{"unknown edge label", pinHeader + pinStrings + pinNodes + pinAttrs + strings.Replace(pinLabels, "\x03run", "\x03ran", 1) + pinEdges + pinDeps, "not part of model"},
		{"edge node index out of range", pinHeader + pinStrings + pinNodes + pinAttrs + pinLabels + "\x05\x01\x01\x00\x05\x04\x00" + pinEdges[7:] + pinDeps, "out of range"},
		{"edge label index out of range", pinHeader + pinStrings + pinNodes + pinAttrs + pinLabels + "\x05\x01\x01\x00\x01\x06\x00" + pinEdges[7:] + pinDeps, "out of range"},
		{"edge the model forbids", pinHeader + pinStrings + pinNodes + pinAttrs + pinLabels + "\x05\x01\x01\x01\x00\x04\x00" + pinEdges[7:] + pinDeps, "violates model"}, // readFrom(process, file)
		{"interval overflow", pinHeader + pinStrings + pinNodes + pinAttrs + pinLabels + "\x05\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x01\x04\x00" + pinEdges[7:] + pinDeps, "overflows"},
		{"dependency on an activity", pinHeader + pinStrings + pinNodes + pinAttrs + pinLabels + pinEdges + "\x01\x03\x02", "must connect entities"},
		{"dependency index out of range", pinHeader + pinStrings + pinNodes + pinAttrs + pinLabels + pinEdges + "\x01\x05\x04", "out of range"},
	}
	for _, c := range cases {
		_, err := Unmarshal([]byte(c.data), m)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
	// One key under two types: each group is in order, the trace is not.
	twice := "LDVT\x01\x08PBB+PLin" + "\x01\x01x" + "\x02" + "\x04file\x00\x01\x01" + "\x07process\x00\x01\x01" + "\x00\x00\x00\x00" + "\x00" + "\x00" + "\x00"
	if _, err := Unmarshal([]byte(twice), m); err == nil || !strings.Contains(err.Error(), "repeats the key") {
		t.Errorf("node key under two types: %v", err)
	}
	// A free-form id spelled like a typed one would render the same id as
	// the typed node; Marshal never writes one.
	alias := "LDVT\x01\x08PBB+PLin" + "\x01\x06proc:1" + "\x01\x07process\x00\x01\x01" + "\x00\x00\x00\x00" + "\x00" + "\x00" + "\x00"
	if _, err := Unmarshal([]byte(alias), m); err == nil || !strings.Contains(err.Error(), "spelled like a typed one") {
		t.Errorf("aliasing free-form id: %v", err)
	}
}

// TestUnmarshalAllocatesInProportion: a trace whose section count claims as
// many elements as the bytes after it hold at the least one takes is refused
// at its first element, and refusing it allocates at most a small constant
// times the input's size.
func TestUnmarshalAllocatesInProportion(t *testing.T) {
	const n, perByte = 64 << 10, 12
	for _, c := range []struct {
		section, prefix string
		min             int
	}{
		{"strings", pinHeader, 2},
		{"node groups", pinHeader + pinStrings, 3},
		{"nodes", pinHeader + pinStrings + "\x01\x04file\x02", 1},
		{"attributes", pinHeader + pinStrings + pinNodes, 2},
		{"edge labels", pinHeader + pinStrings + pinNodes + pinAttrs, 1},
		{"edges", pinHeader + pinStrings + pinNodes + pinAttrs + pinLabels, 6},
		{"dependencies", pinHeader + pinStrings + pinNodes + pinAttrs + pinLabels + pinEdges, 2},
	} {
		rest := n - len(c.prefix) - 3 // a count below 1<<21 takes three bytes
		data := binary.AppendUvarint([]byte(c.prefix), uint64(rest/c.min))
		data = append(data, bytes.Repeat([]byte{0xff}, rest)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Unmarshal(data, CombinedDefault())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: unreadable elements decoded", c.section)
		}
		if grew := int(after.TotalAlloc - before.TotalAlloc); grew > perByte*n {
			t.Errorf("%s: refusing a %d-byte trace allocated %d bytes (%.1f per byte)", c.section, n, grew, float64(grew)/n)
		}
	}
}

// FuzzTraceUnmarshal: no input makes the decoder panic, and whatever it
// accepts is a trace that marshals and decodes to itself.
func FuzzTraceUnmarshal(f *testing.F) {
	f.Add([]byte(pinned))
	f.Add([]byte(pinHeader))
	if data, err := randomTrace(f, 1, 1).Marshal(); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Unmarshal(data, CombinedDefault())
		if err != nil {
			return
		}
		out, err := tr.Marshal()
		if err != nil {
			t.Fatalf("accepted trace does not marshal: %v", err)
		}
		back, err := Unmarshal(out, CombinedDefault())
		if err != nil {
			t.Fatalf("own encoding rejected: %v", err)
		}
		if !slices.Equal(describe(tr), describe(back)) {
			t.Fatal("accepted trace does not survive a round trip")
		}
	})
}
