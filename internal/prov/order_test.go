package prov

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

type edgeSpec struct {
	from, to, label string
	begin, end      uint64
}

// buildFromSpecs constructs a trace with the given edge arrival order.
func buildFromSpecs(t *testing.T, specs []edgeSpec) *Trace {
	t.Helper()
	tr := NewTrace(CombinedDefault())
	for _, id := range []string{"P1", "P2"} {
		if _, err := tr.AddNode(id, TypeProcess, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"Q1", "Q2"} {
		if _, err := tr.AddNode(id, TypeQuery, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"t1", "t2"} {
		if _, err := tr.AddNode(id, TypeTuple, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range specs {
		if _, err := tr.AddEdge(s.from, s.to, s.label, Interval{Begin: s.begin, End: s.end}); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// Concurrent sessions record into one trace in nondeterministic arrival
// order; serialized artifacts must not depend on it. The same edge set
// inserted in different orders must marshal and render identically, in
// logical-clock order.
func TestEdgeOrderDeterminism(t *testing.T) {
	specs := []edgeSpec{
		{"P1", "Q1", EdgeRun, 3, 3},
		{"P2", "Q2", EdgeRun, 3, 3}, // same tick as Q1: tie broken by node id
		{"Q1", "t1", EdgeHasReturned, 4, 4},
		{"Q2", "t2", EdgeHasReturned, 5, 5},
		{"t1", "Q2", EdgeHasRead, 5, 5},
	}
	orders := [][]edgeSpec{
		specs,
		{specs[4], specs[3], specs[2], specs[1], specs[0]},
		{specs[2], specs[0], specs[4], specs[1], specs[3]},
	}

	var wantBytes []byte
	var wantDOT string
	for i, order := range orders {
		tr := buildFromSpecs(t, order)

		edges := tr.EdgesByTime()
		for j := 1; j < len(edges); j++ {
			if edges[j-1].T.Begin > edges[j].T.Begin {
				t.Fatalf("order %d: EdgesByTime not sorted by Begin at %d", i, j)
			}
		}

		data, err := tr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		dot := tr.ExportDOT()
		if i == 0 {
			wantBytes, wantDOT = data, dot
			continue
		}
		if !bytes.Equal(data, wantBytes) {
			t.Errorf("order %d: Marshal differs from arrival order 0", i)
		}
		if dot != wantDOT {
			t.Errorf("order %d: ExportDOT differs from arrival order 0", i)
		}
	}

	// The tie at tick 3 resolves by From.ID: P1's edge sorts before P2's.
	tr := buildFromSpecs(t, orders[1])
	edges := tr.EdgesByTime()
	if tr.ID(edges[0].From) != "P1" || tr.ID(edges[1].From) != "P2" {
		t.Errorf("tie-break wrong: got %s then %s", tr.ID(edges[0].From), tr.ID(edges[1].From))
	}
}

// referenceOrder is the canonical order as comparison sorts define it — the
// order the counting sorts of canonicalize must reproduce: nodes by (type,
// kind, string, A, B), edges by (begin, end, from, to, label, trace) and
// dependencies by (from, to), all over canonical node and string indices.
// It returns the refs in order, the edges with canonical indices in order,
// and the dependency set in order.
func referenceOrder(tr *Trace, strMap []StrID) (nodes []uint32, edges []Edge, deps []Dep) {
	for r := range tr.keys {
		nodes = append(nodes, uint32(r))
	}
	slices.SortFunc(nodes, func(x, y uint32) int {
		kx, ky := tr.keys[x], tr.keys[y]
		return cmp.Or(cmp.Compare(tr.typ[x], tr.typ[y]), cmp.Compare(kx.Kind, ky.Kind),
			cmp.Compare(strMap[kx.Str], strMap[ky.Str]), cmp.Compare(kx.A, ky.A), cmp.Compare(kx.B, ky.B))
	})
	nodeMap := make([]Ref, len(nodes))
	for i, r := range nodes {
		nodeMap[r] = Ref(i)
	}
	for _, e := range tr.edges {
		e.From, e.To, e.Trace = nodeMap[e.From], nodeMap[e.To], strMap[e.Trace]
		edges = append(edges, e)
	}
	slices.SortFunc(edges, func(x, y Edge) int {
		return cmp.Or(cmp.Compare(x.T.Begin, y.T.Begin), cmp.Compare(x.T.End, y.T.End), cmp.Compare(x.From, y.From),
			cmp.Compare(x.To, y.To), cmp.Compare(x.Label, y.Label), cmp.Compare(x.Trace, y.Trace))
	})
	for _, d := range tr.deps {
		deps = append(deps, Dep{From: nodeMap[d.From], To: nodeMap[d.To]})
	}
	slices.SortFunc(deps, func(x, y Dep) int { return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To)) })
	return nodes, edges, slices.Compact(deps)
}

// checkCanonicalOrder compares canonicalize with referenceOrder.
func checkCanonicalOrder(t *testing.T, name string, tr *Trace) {
	t.Helper()
	c := tr.canonicalize()
	nodes, edges, deps := referenceOrder(tr, c.strMap)
	if !slices.Equal(c.nodes, nodes) {
		t.Fatalf("%s: node order differs from the reference", name)
	}
	for i, e := range c.edges {
		got := Edge{From: Ref(c.from[e]), To: Ref(c.to[e]), T: c.ivals[c.ival[e]], Label: uint8(c.label[e]), Trace: StrID(c.trace[e])}
		if got != edges[i] {
			t.Fatalf("%s: edge %d is %+v, the reference has %+v", name, i, got, edges[i])
		}
	}
	if len(c.edges) != len(edges) {
		t.Fatalf("%s: %d edges in order, %d in the trace", name, len(c.edges), len(edges))
	}
	if !slices.Equal(c.deps, deps) {
		t.Fatalf("%s: dependency order differs from the reference", name)
	}
}

// stressModel admits every one of three labels between any two of its four
// types, so edges can tie on (interval, from, to) and differ in label alone.
func stressModel() *Model {
	m := &Model{Name: "stress", Activities: map[string]bool{"act1": true, "act2": true},
		Entities: map[string]bool{"ent1": true, "ent2": true}}
	types := []string{"act1", "act2", "ent1", "ent2"}
	for _, l := range []string{"a", "b", "c"} {
		for _, from := range types {
			for _, to := range types {
				m.EdgeTypes = append(m.EdgeTypes, EdgeType{Label: l, From: from, To: to})
			}
		}
	}
	return m
}

// stressTrace builds a seeded trace over stressModel meant to reach every
// branch of the canonical sorts: every key kind under several types, tuples
// of several tables in buckets of two nodes and of many,
// keys with A and B at and above 2^32 and 2^56, files, free-form ids, and
// edges that repeat exactly or tie on (interval, from, to) and differ only
// in label or request trace; order seeds the insertion order.
func stressTrace(t testing.TB, seed, order int64) *Trace {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	big := func() uint64 {
		switch r.Intn(5) {
		case 0:
			return uint64(r.Intn(300))
		case 1:
			return 1<<32 + uint64(r.Intn(3))
		case 2:
			return 1<<56 + uint64(r.Intn(3))<<40 + uint64(r.Intn(3))
		case 3:
			return math.MaxUint64 - uint64(r.Intn(3))
		}
		return r.Uint64()
	}
	types := []string{"act1", "act2", "ent1", "ent2"}
	type node struct {
		kind Kind
		str  string
		a, b uint64
	}
	var nodes []node
	var typ []string
	seen := map[node]bool{}
	add := func(n node) {
		if !seen[n] { // a key drawn twice is one node, of the first type drawn
			seen[n] = true
			nodes, typ = append(nodes, n), append(typ, types[r.Intn(4)])
		}
	}
	for i := 0; i < 3+r.Intn(3); i++ {
		table := []string{"lineitem", "orders", "t/1@2", "", "z"}[i]
		for j, n := 0, []int{2, 40, 120}[r.Intn(3)]; j < n; j++ {
			add(node{kind: KindTuple, str: table, a: big(), b: big()})
		}
	}
	for i := 0; i < 60; i++ {
		switch i % 5 {
		case 0:
			add(node{kind: KindProc, a: big()})
		case 1:
			add(node{kind: KindStmt, a: big()})
		case 2:
			add(node{kind: KindResult, a: big() % 4, b: big()})
		case 3:
			add(node{kind: KindFile, str: fmt.Sprintf("/data/f%d", r.Intn(20))})
		case 4:
			add(node{kind: KindNamed, str: fmt.Sprintf("n%d", r.Intn(30))})
		}
	}
	type edge struct {
		from, to int
		label    string
		iv       Interval
		trace    string
	}
	var edges []edge
	ivs := []Interval{{1, 1}, {1, 4}, {2, 2}, {7, 9}, {math.MaxUint64 - 1, math.MaxUint64}}
	traces := []string{"", "aa", "bb"}
	for i := 0; i < 300; i++ {
		e := edge{from: r.Intn(len(nodes)), to: r.Intn(len(nodes)), label: []string{"a", "b", "c"}[r.Intn(3)],
			iv: ivs[r.Intn(len(ivs))], trace: traces[r.Intn(3)]}
		edges = append(edges, e)
		switch r.Intn(4) {
		case 0: // the same edge again
			edges = append(edges, e)
		case 1: // a tie on (interval, from, to)
			e.label, e.trace = []string{"a", "b", "c"}[r.Intn(3)], traces[r.Intn(3)]
			edges = append(edges, e)
		}
	}
	var deps [][2]int
	for i := 0; i < 200; i++ {
		deps = append(deps, [2]int{r.Intn(len(nodes)), r.Intn(len(nodes))})
	}
	deps = append(deps, deps[:20]...)

	o := rand.New(rand.NewSource(order))
	tr := NewTrace(stressModel())
	refs := make([]Ref, len(nodes))
	for _, i := range o.Perm(len(nodes)) {
		n := nodes[i]
		ref, err := tr.Intern(Key{Kind: n.kind, Str: tr.InternString(n.str), A: n.a, B: n.b}, typ[i])
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	for _, i := range o.Perm(len(edges)) {
		e := edges[i]
		if _, err := tr.Link(refs[e.from], refs[e.to], e.label, e.iv, tr.InternString(e.trace)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range o.Perm(len(deps)) {
		if from, to := refs[deps[i][0]], refs[deps[i][1]]; tr.IsEntity(from) && tr.IsEntity(to) {
			if err := tr.LinkDep(from, to); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

// The counting sorts put nodes, edges and dependencies in exactly the
// order comparison sorts give, on generated traces in several insertion
// orders and on traces built to stress them; the bytes do not depend on the
// insertion order, and decode to a trace that marshals to them again.
func TestCanonicalOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for order := seed; order < seed+3; order++ {
			checkCanonicalOrder(t, fmt.Sprintf("randomTrace(%d, %d)", seed, order), randomTrace(t, seed, order))
		}
	}
	// Edges equal but for one, in its label or its request trace, at every
	// insertion position: a pass that all keys but one agree on still sorts.
	for odd := 0; odd < 6; odd++ {
		for _, oddLabel := range []bool{false, true} {
			tr := NewTrace(stressModel())
			x, _ := tr.AddNode("x", "act1", "")
			y, _ := tr.AddNode("y", "ent1", "")
			for i := 0; i < 6; i++ {
				label, trace := "b", tr.InternString("bb")
				if i == odd && oddLabel {
					label = "a"
				} else if i == odd {
					trace = tr.InternString("aa")
				}
				if _, err := tr.Link(x, y, label, Point(1), trace); err != nil {
					t.Fatal(err)
				}
			}
			checkCanonicalOrder(t, fmt.Sprintf("odd edge %d (label %v)", odd, oddLabel), tr)
		}
	}
	// More distinct intervals than nodes, arriving out of begin order.
	tr := NewTrace(stressModel())
	x, _ := tr.AddNode("x", "act1", "")
	for _, b := range rand.New(rand.NewSource(1)).Perm(40) {
		if _, err := tr.Link(x, x, "c", Interval{Begin: uint64(b / 2), End: uint64(b)}, 0); err != nil {
			t.Fatal(err)
		}
	}
	checkCanonicalOrder(t, "40 intervals", tr)
	for seed := int64(1); seed <= 25; seed++ {
		var want []byte
		for order := int64(0); order < 3; order++ {
			tr := stressTrace(t, seed, order)
			name := fmt.Sprintf("stressTrace(%d, %d)", seed, order)
			checkCanonicalOrder(t, name, tr)
			data, err := tr.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if order == 0 {
				want = data
			} else if !bytes.Equal(data, want) {
				t.Fatalf("%s: Marshal depends on the insertion order", name)
			}
			back, err := Unmarshal(data, stressModel())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if again, _ := back.Marshal(); !bytes.Equal(again, data) {
				t.Fatalf("%s: the decoded trace marshals to other bytes", name)
			}
		}
	}
}
