package prov

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
)

// Interval is a closed logical-time interval annotating an edge
// (Definition 2's T function).
type Interval struct {
	Begin, End uint64
}

// Point returns the degenerate interval [t, t].
func Point(t uint64) Interval { return Interval{Begin: t, End: t} }

// String renders the interval as [b, e].
func (iv Interval) String() string { return fmt.Sprintf("[%d, %d]", iv.Begin, iv.End) }

// Valid reports whether Begin <= End.
func (iv Interval) Valid() bool { return iv.Begin <= iv.End }

// Node is the boundary view of one activity or entity instance: its
// rendered id, type and description. Views are built on demand by Node,
// Nodes and State; the trace itself holds no Node values.
type Node struct {
	Ref   Ref
	ID    string
	Type  string
	Label string // human-readable description
}

// IsEntity reports whether the node is an entity under model m.
func (n *Node) IsEntity(m *Model) bool { return m.IsEntity(n.Type) }

// Edge is one typed, time-annotated interaction between two nodes of a
// trace. Label indexes the trace's edge-label table (Trace.EdgeLabel).
// Trace, when non-zero, names in the string table the obs request trace (hex
// form) whose execution recorded the edge — linking the provenance graph
// back to the flight recorder so a package answers "which request wrote
// this tuple version".
type Edge struct {
	From, To Ref
	T        Interval
	Trace    StrID
	Label    uint8
}

// Dep records a direct same-model data dependency between two entities:
// To depends on From (information flowed From -> To). For PLin these are
// derived from Lineage (Definition 7); recording them explicitly preserves
// the per-result association that plain hasRead/hasReturned edges lose.
type Dep struct {
	From, To Ref
}

// Attr names one of the per-node side tables.
type Attr uint8

const (
	AttrLabel  Attr = iota // explicit description, overriding the one derived from the key
	AttrBinary             // process: path of the binary it was spawned from
	AttrSQL                // statement: SQL text
	AttrTrace              // statement: hex obs request-trace id
	numAttrs
)

// Trace is an execution trace for a provenance model (Definition 2): a
// typed graph with interval-annotated edges, plus recorded direct data
// dependencies. Nodes are dense integers interned from typed keys; edges and
// dependencies are flat slices of integer structs; every string (paths,
// table names, SQL, request-trace ids, free-form ids) is stored once in one
// string table. String node ids exist only at the boundary — the methods
// taking or returning ids parse and render them. A Trace is not safe for
// concurrent mutation.
type Trace struct {
	Model *Model

	// Fixed at NewTrace from the model: the admissible node types and edge
	// labels, each sorted, and the admissible (label, from, to) triples.
	types  []string
	entity []bool // parallel to types
	labels []string
	valid  []bool // [(label*len(types)+from)*len(types)+to]

	strs   []string
	strIdx map[string]StrID

	keys  []Key   // by Ref
	typ   []uint8 // by Ref, index into types
	index map[Key]Ref
	attrs [numAttrs]map[Ref]StrID

	edges []Edge
	deps  []Dep // as recorded; may repeat a pair
}

// NewTrace returns an empty trace for model m.
func NewTrace(m *Model) *Trace {
	tr := &Trace{
		Model:  m,
		strs:   []string{""},
		strIdx: map[string]StrID{"": 0},
		index:  map[Key]Ref{},
	}
	for t := range m.Activities {
		tr.types = append(tr.types, t)
	}
	for t := range m.Entities {
		tr.types = append(tr.types, t)
	}
	sort.Strings(tr.types)
	if len(tr.types) > math.MaxUint8 || len(m.EdgeTypes) > math.MaxUint8 {
		panic("prov: model " + m.Name + " has more node types or edge types than a trace can index")
	}
	tr.entity = make([]bool, len(tr.types))
	for i, t := range tr.types {
		tr.entity[i] = m.IsEntity(t)
	}
	seen := map[string]bool{}
	for _, et := range m.EdgeTypes {
		if !seen[et.Label] {
			seen[et.Label] = true
			tr.labels = append(tr.labels, et.Label)
		}
	}
	sort.Strings(tr.labels)
	nt := len(tr.types)
	tr.valid = make([]bool, len(tr.labels)*nt*nt)
	for _, et := range m.EdgeTypes {
		from, to := indexOf(tr.types, et.From), indexOf(tr.types, et.To)
		if from >= 0 && to >= 0 {
			tr.valid[(indexOf(tr.labels, et.Label)*nt+from)*nt+to] = true
		}
	}
	return tr
}

// indexOf is a linear search: the tables it serves hold a handful of names.
func indexOf(names []string, s string) int {
	for i, n := range names {
		if n == s {
			return i
		}
	}
	return -1
}

// InternString returns the string-table index of s, adding it if new.
func (tr *Trace) InternString(s string) StrID {
	if id, ok := tr.strIdx[s]; ok {
		return id
	}
	id := StrID(len(tr.strs))
	tr.strs = append(tr.strs, s)
	tr.strIdx[s] = id
	return id
}

// String returns the string-table entry id ("" for 0).
func (tr *Trace) String(id StrID) string { return tr.strs[id] }

// Intern creates (or returns the existing) node with key k and type typ.
// Adding the same key with a different type is an error.
func (tr *Trace) Intern(k Key, typ string) (Ref, error) {
	ti := indexOf(tr.types, typ)
	if ti < 0 {
		return 0, fmt.Errorf("trace: node type %q is not part of model %s", typ, tr.Model.Name)
	}
	if r, ok := tr.index[k]; ok {
		if int(tr.typ[r]) != ti {
			return 0, fmt.Errorf("trace: node %q exists with type %q, not %q", tr.ID(r), tr.types[tr.typ[r]], typ)
		}
		return r, nil
	}
	r := Ref(len(tr.keys))
	tr.keys = append(tr.keys, k)
	tr.typ = append(tr.typ, uint8(ti))
	tr.index[k] = r
	return r, nil
}

// Lookup returns the node with key k.
func (tr *Trace) Lookup(k Key) (Ref, bool) {
	r, ok := tr.index[k]
	return r, ok
}

// Type returns node r's type label.
func (tr *Trace) Type(r Ref) string { return tr.types[tr.typ[r]] }

// IsEntity reports whether node r is an entity (not an activity).
func (tr *Trace) IsEntity(r Ref) bool { return tr.entity[tr.typ[r]] }

// SetAttr stores v in node r's side table a; "" clears the entry.
func (tr *Trace) SetAttr(r Ref, a Attr, v string) {
	if v == "" {
		delete(tr.attrs[a], r)
		return
	}
	if tr.attrs[a] == nil {
		tr.attrs[a] = map[Ref]StrID{}
	}
	tr.attrs[a][r] = tr.InternString(v)
}

// Attr returns node r's entry in side table a, "" if it has none.
func (tr *Trace) Attr(r Ref, a Attr) string { return tr.strs[tr.attrs[a][r]] }

// Label describes node r for people: its AttrLabel if one was set, else a
// description derived from the key — "process <pid>", the file path, the
// statement's SQL text, table/row@version, or a result tuple's id.
func (tr *Trace) Label(r Ref) string { return tr.label(r, "") }

// label is Label for a caller that may already hold r's rendered id ("" if
// not), which two of the derived descriptions are cut from.
func (tr *Trace) label(r Ref, id string) string {
	if s, ok := tr.attrs[AttrLabel][r]; ok {
		return tr.strs[s]
	}
	k := tr.keys[r]
	switch k.Kind {
	case KindProc:
		return "process " + strconv.FormatUint(k.A, 10)
	case KindFile:
		return tr.strs[k.Str]
	case KindStmt:
		return tr.Attr(r, AttrSQL)
	case KindTuple, KindResult:
		if id == "" {
			id = tr.ID(r)
		}
		if k.Kind == KindTuple {
			return id[len(tuplePrefix):]
		}
		return id
	}
	return ""
}

// Link connects two nodes with a typed, time-annotated edge, validating
// the edge type against the model. trace is the string-table index of the
// recording request's trace id, 0 for none.
func (tr *Trace) Link(from, to Ref, label string, t Interval, trace StrID) (Edge, error) {
	li := indexOf(tr.labels, label)
	if li < 0 {
		return Edge{}, fmt.Errorf("trace: edge label %q is not part of model %s", label, tr.Model.Name)
	}
	return tr.link(from, to, li, t, trace)
}

// link is Link with the label already resolved to its table index.
func (tr *Trace) link(from, to Ref, label int, t Interval, trace StrID) (Edge, error) {
	if int(from) >= len(tr.keys) || int(to) >= len(tr.keys) {
		return Edge{}, fmt.Errorf("trace: edge %d->%d names a node outside the trace's %d", from, to, len(tr.keys))
	}
	if int(trace) >= len(tr.strs) {
		return Edge{}, fmt.Errorf("trace: edge %s->%s names string %d outside the table's %d", tr.ID(from), tr.ID(to), trace, len(tr.strs))
	}
	if !t.Valid() {
		return Edge{}, fmt.Errorf("trace: invalid interval %v on edge %s->%s", t, tr.ID(from), tr.ID(to))
	}
	nt := len(tr.types)
	if !tr.valid[(label*nt+int(tr.typ[from]))*nt+int(tr.typ[to])] {
		return Edge{}, fmt.Errorf("trace: edge %s(%s, %s) violates model %s",
			tr.labels[label], tr.Type(from), tr.Type(to), tr.Model.Name)
	}
	e := Edge{From: from, To: to, T: t, Trace: trace, Label: uint8(label)}
	tr.edges = append(tr.edges, e)
	return e, nil
}

// LinkDep records that entity to directly depends on entity from within
// one provenance model.
func (tr *Trace) LinkDep(from, to Ref) error {
	if int(from) >= len(tr.keys) || int(to) >= len(tr.keys) {
		return fmt.Errorf("trace: dependency %d -> %d names a node outside the trace's %d", from, to, len(tr.keys))
	}
	if !tr.IsEntity(from) || !tr.IsEntity(to) {
		return fmt.Errorf("trace: dependency %s -> %s must connect entities", tr.ID(from), tr.ID(to))
	}
	tr.deps = append(tr.deps, Dep{From: from, To: to})
	return nil
}

// Edges returns all edges in insertion order. The slice is the trace's own;
// callers must not modify it.
func (tr *Trace) Edges() []Edge { return tr.edges }

// EdgeLabel returns e's label (readFrom, hasRead, ...).
func (tr *Trace) EdgeLabel(e Edge) string { return tr.labels[e.Label] }

// Deps returns the recorded direct dependencies as a set: sorted by
// (From, To), each pair once.
func (tr *Trace) Deps() []Dep {
	packed := packDeps(tr.deps, nil)
	out := make([]Dep, len(packed))
	for i, p := range packed {
		out[i] = Dep{From: Ref(p >> 32), To: Ref(uint32(p))}
	}
	return out
}

// packDeps returns deps as a sorted set of from<<32|to words, the node
// indices first mapped through remap when it is non-nil. One word per pair
// lets the sort run on plain integers.
func packDeps(deps []Dep, remap []Ref) []uint64 {
	out := make([]uint64, len(deps))
	for i, d := range deps {
		if remap != nil {
			d = Dep{From: remap[d.From], To: remap[d.To]}
		}
		out[i] = uint64(d.From)<<32 | uint64(d.To)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// NodeCount reports the number of nodes.
func (tr *Trace) NodeCount() int { return len(tr.keys) }

// EdgeCount reports the number of edges.
func (tr *Trace) EdgeCount() int { return len(tr.edges) }

// Adjacency is a per-node index over the edges a trace held when
// Trace.Adjacency built it. It is immutable; edges added later are not in it.
type Adjacency struct {
	outStart, out []uint32
	inStart, in   []uint32
}

// Adjacency builds the per-node out- and in-edge lists from the flat edge
// slice, in one counting pass each.
func (tr *Trace) Adjacency() *Adjacency {
	n := len(tr.keys)
	a := &Adjacency{
		outStart: make([]uint32, n+1), out: make([]uint32, len(tr.edges)),
		inStart: make([]uint32, n+1), in: make([]uint32, len(tr.edges)),
	}
	for _, e := range tr.edges {
		a.outStart[e.From+1]++
		a.inStart[e.To+1]++
	}
	for i := 0; i < n; i++ {
		a.outStart[i+1] += a.outStart[i]
		a.inStart[i+1] += a.inStart[i]
	}
	outNext := append([]uint32(nil), a.outStart[:n]...)
	inNext := append([]uint32(nil), a.inStart[:n]...)
	for i, e := range tr.edges {
		a.out[outNext[e.From]] = uint32(i)
		outNext[e.From]++
		a.in[inNext[e.To]] = uint32(i)
		inNext[e.To]++
	}
	return a
}

// Out returns the indices into Trace.Edges of the edges leaving r, in
// insertion order.
func (a *Adjacency) Out(r Ref) []uint32 { return a.out[a.outStart[r]:a.outStart[r+1]] }

// In returns the indices into Trace.Edges of the edges entering r, in
// insertion order.
func (a *Adjacency) In(r Ref) []uint32 { return a.in[a.inStart[r]:a.inStart[r+1]] }
