package prov

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"

	"ldv/internal/bin"
)

// The native serialization of a trace — the member every server-included
// package carries — is one length-prefixed varint encoding (DESIGN.md
// "Trace format"). All integers are uvarints, a string is its length then
// its bytes, and every section starts with its element count:
//
//	magic    "LDVT", version byte
//	model    string
//	strings  the referenced strings, ascending; later sections name them
//	         by 1-based position, 0 being ""
//	nodes    groups ascending by (type name, key kind), each: type string,
//	         kind, count, then the keys ascending by (string, A, B) with
//	         only the fields their kind uses; a node's index is its
//	         position in this table
//	attrs    one list per Attr in declaration order: (node delta, string),
//	         nodes strictly ascending
//	labels   the model's edge labels, ascending
//	edges    ascending by (begin, end, from, to, label, trace):
//	         begin delta, end-begin, from, to, label, trace string
//	deps     ascending by (from, to), each pair once: from delta, to
//
// Node indices, string indices and the two orders are canonical, so equal
// traces marshal to equal bytes whatever order they were built in.
const (
	traceMagic   = "LDVT"
	traceVersion = 1
)

// kindFields says which key fields each kind encodes.
var kindFields = [numKinds]struct{ str, a, b bool }{
	KindNamed:  {str: true},
	KindProc:   {a: true},
	KindFile:   {str: true},
	KindStmt:   {a: true},
	KindTuple:  {str: true, a: true, b: true},
	KindResult: {a: true, b: true},
}

// compareKeys orders keys by (kind, string, A, B); the comparisons are
// spelled out, not folded through cmp.Or, because the sorts over them are
// most of what Marshal costs.
func compareKeys(x, y Key) int {
	switch {
	case x.Kind != y.Kind:
		return cmp.Compare(x.Kind, y.Kind)
	case x.Str != y.Str:
		return cmp.Compare(x.Str, y.Str)
	case x.A != y.A:
		return cmp.Compare(x.A, y.A)
	}
	return cmp.Compare(x.B, y.B)
}

type sortNode struct {
	typ uint8
	key Key // Str already canonical
	old Ref
}

// Marshal serializes the trace to its package representation.
func (tr *Trace) Marshal() ([]byte, error) {
	// Canonical string indices: referenced strings only, ascending.
	used := make([]bool, len(tr.strs))
	for _, k := range tr.keys {
		used[k.Str] = true
	}
	for _, table := range tr.attrs {
		for _, s := range table {
			used[s] = true
		}
	}
	for _, e := range tr.edges {
		used[e.Trace] = true
	}
	var strOrder []StrID
	for s := 1; s < len(used); s++ {
		if used[s] {
			strOrder = append(strOrder, StrID(s))
		}
	}
	slices.SortFunc(strOrder, func(a, b StrID) int { return cmp.Compare(tr.strs[a], tr.strs[b]) })
	strMap := make([]StrID, len(tr.strs))
	for i, s := range strOrder {
		strMap[s] = StrID(i + 1)
	}

	// Canonical node indices: by type (the type table is sorted), then key.
	nodes := make([]sortNode, len(tr.keys))
	for r, k := range tr.keys {
		k.Str = strMap[k.Str]
		nodes[r] = sortNode{typ: tr.typ[r], key: k, old: Ref(r)}
	}
	slices.SortFunc(nodes, func(x, y sortNode) int {
		if x.typ != y.typ {
			return cmp.Compare(x.typ, y.typ)
		}
		return compareKeys(x.key, y.key)
	})
	nodeMap := make([]Ref, len(nodes))
	for i, n := range nodes {
		nodeMap[n.old] = Ref(i)
	}

	edges := make([]Edge, len(tr.edges))
	for i, e := range tr.edges {
		e.From, e.To, e.Trace = nodeMap[e.From], nodeMap[e.To], strMap[e.Trace]
		edges[i] = e
	}
	slices.SortFunc(edges, func(x, y Edge) int {
		switch {
		case x.T.Begin != y.T.Begin:
			return cmp.Compare(x.T.Begin, y.T.Begin)
		case x.T.End != y.T.End:
			return cmp.Compare(x.T.End, y.T.End)
		case x.From != y.From:
			return cmp.Compare(x.From, y.From)
		case x.To != y.To:
			return cmp.Compare(x.To, y.To)
		case x.Label != y.Label:
			return cmp.Compare(x.Label, y.Label)
		}
		return cmp.Compare(x.Trace, y.Trace)
	})

	deps := packDeps(tr.deps, nodeMap)

	buf := make([]byte, 0, 64+8*len(nodes)+12*len(edges)+6*len(deps))
	buf = append(buf, traceMagic...)
	buf = append(buf, traceVersion)
	buf = bin.AppendString(buf, tr.Model.Name)
	buf = binary.AppendUvarint(buf, uint64(len(strOrder)))
	for _, s := range strOrder {
		buf = bin.AppendString(buf, tr.strs[s])
	}

	groups := 0
	for i, n := range nodes {
		if i == 0 || n.typ != nodes[i-1].typ || n.key.Kind != nodes[i-1].key.Kind {
			groups++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(groups))
	for i := 0; i < len(nodes); {
		j := i
		for j < len(nodes) && nodes[j].typ == nodes[i].typ && nodes[j].key.Kind == nodes[i].key.Kind {
			j++
		}
		kind := nodes[i].key.Kind
		buf = bin.AppendString(buf, tr.types[nodes[i].typ])
		buf = binary.AppendUvarint(buf, uint64(kind))
		buf = binary.AppendUvarint(buf, uint64(j-i))
		f := kindFields[kind]
		for _, n := range nodes[i:j] {
			if f.str {
				buf = binary.AppendUvarint(buf, uint64(n.key.Str))
			}
			if f.a {
				buf = binary.AppendUvarint(buf, n.key.A)
			}
			if f.b {
				buf = binary.AppendUvarint(buf, n.key.B)
			}
		}
		i = j
	}

	for _, table := range tr.attrs {
		type entry struct {
			node Ref
			str  StrID
		}
		entries := make([]entry, 0, len(table))
		for r, s := range table {
			entries = append(entries, entry{node: nodeMap[r], str: strMap[s]})
		}
		slices.SortFunc(entries, func(x, y entry) int { return cmp.Compare(x.node, y.node) })
		buf = binary.AppendUvarint(buf, uint64(len(entries)))
		prev := Ref(0)
		for _, e := range entries {
			buf = binary.AppendUvarint(buf, uint64(e.node-prev))
			buf = binary.AppendUvarint(buf, uint64(e.str))
			prev = e.node
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(tr.labels)))
	for _, l := range tr.labels {
		buf = bin.AppendString(buf, l)
	}

	buf = binary.AppendUvarint(buf, uint64(len(edges)))
	prevBegin := uint64(0)
	for _, e := range edges {
		buf = binary.AppendUvarint(buf, e.T.Begin-prevBegin)
		buf = binary.AppendUvarint(buf, e.T.End-e.T.Begin)
		buf = binary.AppendUvarint(buf, uint64(e.From))
		buf = binary.AppendUvarint(buf, uint64(e.To))
		buf = binary.AppendUvarint(buf, uint64(e.Label))
		buf = binary.AppendUvarint(buf, uint64(e.Trace))
		prevBegin = e.T.Begin
	}

	buf = binary.AppendUvarint(buf, uint64(len(deps)))
	prevFrom := uint64(0)
	for _, d := range deps {
		buf = binary.AppendUvarint(buf, d>>32-prevFrom)
		buf = binary.AppendUvarint(buf, d&math.MaxUint32)
		prevFrom = d >> 32
	}
	return buf, nil
}

// index reads an integer that must be below limit.
func index(r *bin.Reader, limit int, what string) uint32 {
	v := r.Uvarint()
	if v >= uint64(limit) {
		r.Failf("%s %d out of range (have %d)", what, v, limit)
		return 0
	}
	return uint32(v)
}

// Unmarshal reconstructs a trace serialized with Marshal, treating data as
// outside input: every count is checked against the bytes remaining before
// anything is sized by it, every node, string and label index against the
// table it points into, node types, edge types, intervals and dependency
// endpoints against the model exactly as Intern, Link and LinkDep check
// them, table orders and uniqueness as Marshal writes them, and trailing
// bytes are rejected. The model must match the serialized model name.
func Unmarshal(data []byte, m *Model) (*Trace, error) {
	tr, err := unmarshal(data, m)
	if err != nil {
		return nil, fmt.Errorf("trace unmarshal: %w", err)
	}
	return tr, nil
}

func unmarshal(data []byte, m *Model) (*Trace, error) {
	if len(data) < len(traceMagic)+1 || string(data[:len(traceMagic)]) != traceMagic {
		return nil, errors.New("bad magic: not a binary LDV trace (the JSON trace member of packages built before this format is not supported)")
	}
	if v := data[len(traceMagic)]; v != traceVersion {
		return nil, fmt.Errorf("format version %d, this build reads version %d", v, traceVersion)
	}
	r := bin.NewReader(data[len(traceMagic)+1:])
	if name := r.Str(); r.Err() == nil && name != m.Name {
		return nil, fmt.Errorf("model %q does not match %q", name, m.Name)
	}
	tr := NewTrace(m)

	nstr := r.Count("string", 2)
	for i := 0; i < nstr && r.Err() == nil; i++ {
		s := r.Str()
		if r.Err() == nil && s <= tr.strs[len(tr.strs)-1] {
			r.Failf("string table not strictly ascending at %d", i)
		}
		tr.strIdx[s] = StrID(len(tr.strs))
		tr.strs = append(tr.strs, s)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}

	ngroups := r.Count("node group", 3)
	prevType, prevKind := -1, Kind(0)
	for g := 0; g < ngroups && r.Err() == nil; g++ {
		typ := r.Str()
		kind := Kind(index(r, int(numKinds), "key kind"))
		f := kindFields[kind]
		width := 0
		for _, on := range []bool{f.str, f.a, f.b} {
			if on {
				width++
			}
		}
		n := r.Count("node", width)
		if r.Err() != nil {
			break
		}
		ti := indexOf(tr.types, typ)
		if ti < 0 {
			return nil, fmt.Errorf("node type %q is not part of model %s", typ, m.Name)
		}
		if ti < prevType || (ti == prevType && kind <= prevKind) {
			return nil, fmt.Errorf("node group %d (%s, kind %d) out of order", g, typ, kind)
		}
		prevType, prevKind = ti, kind
		var prev Key
		for i := 0; i < n && r.Err() == nil; i++ {
			k := Key{Kind: kind}
			if f.str {
				k.Str = StrID(index(r, len(tr.strs), "string index"))
			}
			if f.a {
				k.A = r.Uvarint()
			}
			if f.b {
				k.B = r.Uvarint()
			}
			if i > 0 && compareKeys(prev, k) >= 0 {
				r.Failf("%s nodes not strictly ascending at %d", typ, i)
			}
			if kind == KindNamed {
				if pk, _, _, _ := ParseID(tr.strs[k.Str]); pk != KindNamed {
					r.Failf("free-form node id %q is spelled like a typed one", tr.strs[k.Str])
				}
			}
			prev = k
			tr.index[k] = Ref(len(tr.keys))
			tr.keys = append(tr.keys, k)
			tr.typ = append(tr.typ, uint8(ti))
		}
		if r.Err() == nil && len(tr.index) != len(tr.keys) {
			r.Failf("a %s node repeats the key of an earlier node", typ)
		}
	}
	if r.Err() != nil {
		return nil, r.Err()
	}

	for a := range tr.attrs {
		n := r.Count("attribute", 2)
		next := 0
		for i := 0; i < n && r.Err() == nil; i++ {
			delta := r.Uvarint()
			if i > 0 && delta == 0 {
				r.Failf("attribute nodes not strictly ascending at %d", i)
			}
			if delta >= uint64(len(tr.keys)-next) {
				r.Failf("attribute node index out of range (have %d)", len(tr.keys))
				break
			}
			next += int(delta)
			s := StrID(index(r, len(tr.strs), "string index"))
			if r.Err() == nil && s == 0 {
				r.Failf("empty attribute value")
			}
			if tr.attrs[a] == nil {
				tr.attrs[a] = map[Ref]StrID{}
			}
			tr.attrs[a][Ref(next)] = s
		}
	}

	nlabels := r.Count("edge label", 1)
	labelMap := bin.Make[int](nlabels, r.Len())
	for i := 0; i < nlabels && r.Err() == nil; i++ {
		l := r.Str()
		li := indexOf(tr.labels, l)
		if r.Err() == nil && li < 0 {
			return nil, fmt.Errorf("edge label %q is not part of model %s", l, m.Name)
		}
		labelMap = append(labelMap, li)
	}

	nedges := r.Count("edge", 6)
	begin := uint64(0)
	for i := 0; i < nedges && r.Err() == nil; i++ {
		delta, length := r.Uvarint(), r.Uvarint()
		from := Ref(index(r, len(tr.keys), "edge source"))
		to := Ref(index(r, len(tr.keys), "edge target"))
		label := index(r, len(labelMap), "edge label")
		trace := StrID(index(r, len(tr.strs), "string index"))
		if r.Err() != nil {
			break
		}
		if delta > math.MaxUint64-begin || length > math.MaxUint64-begin-delta {
			r.Failf("edge %d: interval overflows", i)
			break
		}
		begin += delta
		if _, err := tr.link(from, to, labelMap[label], Interval{Begin: begin, End: begin + length}, trace); err != nil {
			return nil, err
		}
	}

	ndeps := r.Count("dependency", 2)
	from := uint64(0)
	for i := 0; i < ndeps && r.Err() == nil; i++ {
		delta := r.Uvarint()
		to := index(r, len(tr.keys), "dependency target")
		if r.Err() != nil {
			break
		}
		if delta >= uint64(len(tr.keys))-from {
			r.Failf("dependency source out of range (have %d)", len(tr.keys))
			break
		}
		from += delta
		if err := tr.LinkDep(Ref(from), Ref(to)); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return tr, nil
}

// ExportPROV renders the trace in a PROV-JSON-flavoured document, mapping
// the model's edge labels onto PROV relations: readFrom/hasRead become
// prov:used, hasWritten/hasReturned become prov:wasGeneratedBy, executed
// and run become prov:wasStartedBy, and recorded data dependencies become
// prov:wasDerivedFrom. This demonstrates the paper's claim that the generic
// model is representable in PROV.
func (tr *Trace) ExportPROV() ([]byte, error) {
	type rel struct {
		Activity string `json:"prov:activity,omitempty"`
		Entity   string `json:"prov:entity,omitempty"`
		Starter  string `json:"prov:trigger,omitempty"`
		Started  string `json:"prov:activity2,omitempty"`
		Gen      string `json:"prov:generatedEntity,omitempty"`
		Used     string `json:"prov:usedEntity,omitempty"`
		Begin    uint64 `json:"ldv:begin"`
		End      uint64 `json:"ldv:end"`
	}
	ids := tr.renderIDs()
	doc := map[string]any{}
	entities := map[string]any{}
	activities := map[string]any{}
	for _, n := range tr.nodesByID(ids) {
		meta := map[string]string{"ldv:type": n.Type}
		if n.Label != "" {
			meta["prov:label"] = n.Label
		}
		if n.IsEntity(tr.Model) {
			entities[n.ID] = meta
		} else {
			activities[n.ID] = meta
		}
	}
	used := map[string]rel{}
	generated := map[string]rel{}
	started := map[string]rel{}
	for i, e := range tr.edgesByTime(ids) {
		key := fmt.Sprintf("_:r%d", i)
		from, to := ids[e.From], ids[e.To]
		switch label := tr.EdgeLabel(e); label {
		case EdgeReadFrom, EdgeHasRead:
			used[key] = rel{Activity: to, Entity: from, Begin: e.T.Begin, End: e.T.End}
		case EdgeHasWritten, EdgeHasReturned:
			generated[key] = rel{Activity: from, Entity: to, Begin: e.T.Begin, End: e.T.End}
		case EdgeExecuted, EdgeRun:
			started[key] = rel{Starter: from, Started: to, Begin: e.T.Begin, End: e.T.End}
		default:
			return nil, fmt.Errorf("export PROV: unmapped edge label %q", label)
		}
	}
	derived := map[string]any{}
	for i, d := range tr.depsByID(ids) {
		derived[fmt.Sprintf("_:d%d", i)] = map[string]string{
			"prov:generatedEntity": ids[d.To],
			"prov:usedEntity":      ids[d.From],
		}
	}
	doc["prefix"] = map[string]string{"ldv": "https://example.org/ldv#"}
	doc["entity"] = entities
	doc["activity"] = activities
	if len(used) > 0 {
		doc["used"] = used
	}
	if len(generated) > 0 {
		doc["wasGeneratedBy"] = generated
	}
	if len(started) > 0 {
		doc["wasStartedBy"] = started
	}
	if len(derived) > 0 {
		doc["wasDerivedFrom"] = derived
	}
	return json.MarshalIndent(doc, "", " ")
}
