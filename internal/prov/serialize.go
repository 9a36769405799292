package prov

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
//	         only the fields their kind uses, each field a delta from the
//	         previous key's while the fields before it repeat and whole
//	         after one that does not; a node's index is its position in
//	         this table
//	attrs    one list per Attr in declaration order: (node delta, string),
//	         nodes strictly ascending
//	labels   the model's edge labels, ascending
//	edges    ascending by (begin, end, from, to, label, trace), column by
//	         column: the distinct intervals as runs (begin delta, end-begin,
//	         edges in the run); from, a delta within its run; to, a delta
//	         while from repeats; label, then trace string, as (value, run
//	         length) pairs
//	deps     ascending by (from, to), each pair once: from delta, to (a
//	         delta while from repeats)
//
// Node indices, string indices and the three orders are canonical, so equal
// traces marshal to equal bytes whatever order they were built in; the
// decoder accepts nothing else, so what it accepts marshals back to itself.
const (
	traceMagic   = "LDVT"
	traceVersion = 2
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

// canon is a trace's canonical numbering and order — what Marshal writes —
// computed from content alone, in passes linear in the trace: counting sorts
// over dense indices, the only comparison sorts being those of the strings
// and of the few distinct intervals.
type canon struct {
	strs    []StrID  // the referenced strings, ascending: canonical index i+1
	strMap  []StrID  // string-table index → canonical index
	nodes   []uint32 // refs in canonical order
	nodeMap []Ref    // ref → canonical index

	// edges holds indices into Trace.edges in canonical order; from, to,
	// label, trace and ival are indexed like Trace.edges and hold each
	// edge's canonical node, label and string indices and its interval's
	// index into ivals, the distinct intervals ascending.
	edges                        []uint32
	from, to, label, trace, ival []uint32
	ivals                        []Interval

	deps []Dep // canonical indices, ascending, each pair once
}

func (tr *Trace) canonicalize() *canon {
	c := &canon{}
	c.strs, c.strMap = tr.canonicalStrings()
	n := len(tr.keys)
	count := make([]uint32, max(n, len(c.strs)+1, len(tr.types)*int(numKinds), len(tr.labels))+1)
	c.nodes, c.nodeMap = tr.nodeOrder(c.strMap, len(c.strs)+1, count)
	tr.edgeOrder(c, count)
	c.deps = packDeps(tr.deps, c.nodeMap, n)
	return c
}

// canonicalStrings returns the strings the trace references, ascending, and
// the map from string-table index to canonical index (1-based, 0 for "").
func (tr *Trace) canonicalStrings() (order, strMap []StrID) {
	used := make([]bool, len(tr.strs))
	for _, k := range tr.keys {
		if kindFields[k.Kind].str {
			used[k.Str] = true
		}
	}
	for _, table := range tr.attrs {
		for _, s := range table {
			used[s] = true
		}
	}
	for _, e := range tr.edges {
		used[e.Trace] = true
	}
	for s := 1; s < len(used); s++ {
		if used[s] {
			order = append(order, StrID(s))
		}
	}
	slices.SortFunc(order, func(a, b StrID) int { return cmp.Compare(tr.strs[a], tr.strs[b]) })
	strMap = make([]StrID, len(tr.strs))
	for i, s := range order {
		strMap[s] = StrID(i + 1)
	}
	return order, strMap
}

// countingPass stably reorders perm by key[perm[i]], each below buckets, into
// tmp and returns the two slices swapped — or returns them as they were when
// every key is the same. count is scratch of at least buckets+1 entries.
func countingPass(perm, tmp, key []uint32, buckets int, count []uint32) ([]uint32, []uint32) {
	if len(perm) == 0 {
		return perm, tmp
	}
	count = count[:buckets+1]
	clear(count)
	for _, p := range perm {
		count[key[p]+1]++
	}
	if count[key[perm[0]]+1] == uint32(len(perm)) {
		return perm, tmp
	}
	for b := 1; b < len(count); b++ {
		count[b] += count[b-1]
	}
	for _, p := range perm {
		k := key[p]
		tmp[count[k]] = p
		count[k]++
	}
	return tmp, perm
}

// nodeOrder returns the refs in canonical order — by (type, kind, string,
// A, B) — and the inverse map. Two stable counting passes, on the string's
// canonical index and then on (type, kind), put the nodes in buckets of one
// type, kind and string; radixAB sorts each bucket on (A, B).
func (tr *Trace) nodeOrder(strMap []StrID, nstr int, count []uint32) (order []uint32, nodeMap []Ref) {
	n := len(tr.keys)
	key := make([]uint32, n)
	order, tmp := make([]uint32, n), make([]uint32, n)
	for r, k := range tr.keys {
		key[r] = uint32(strMap[k.Str])
		order[r] = uint32(r)
	}
	order, tmp = countingPass(order, tmp, key, nstr, count)
	for r, k := range tr.keys {
		key[r] = uint32(tr.typ[r])*uint32(numKinds) + uint32(k.Kind)
	}
	order, tmp = countingPass(order, tmp, key, len(tr.types)*int(numKinds), count)
	for lo := 0; lo < n; {
		first := order[lo]
		hi := lo + 1
		for hi < n && tr.typ[order[hi]] == tr.typ[first] && tr.keys[order[hi]].Kind == tr.keys[first].Kind &&
			strMap[tr.keys[order[hi]].Str] == strMap[tr.keys[first].Str] {
			hi++
		}
		tr.radixAB(order[lo:hi], tmp[lo:hi])
		lo = hi
	}
	nodeMap = make([]Ref, n)
	for i, r := range order {
		nodeMap[r] = Ref(i)
	}
	return order, nodeMap
}

// radixAB sorts one bucket of refs on (A, B), tmp being scratch of its
// length: an LSD radix sort over as many 8-bit digits as the bucket's
// largest B and then its largest A need, skipping a digit every key shares.
func (tr *Trace) radixAB(b, tmp []uint32) {
	keys := tr.keys
	var orA, orB uint64
	for _, r := range b {
		orA |= keys[r].A
		orB |= keys[r].B
	}
	src, dst := b, tmp
	for shift := 0; shift < bits.Len64(orB); shift += 8 {
		if tr.digitPass(src, dst, false, uint(shift)) {
			src, dst = dst, src
		}
	}
	for shift := 0; shift < bits.Len64(orA); shift += 8 {
		if tr.digitPass(src, dst, true, uint(shift)) {
			src, dst = dst, src
		}
	}
	if len(b) > 0 && &src[0] != &b[0] {
		copy(b, src)
	}
}

// digitPass stably reorders src into dst by the 8-bit digit at shift of each
// key's A (or B), reporting false, and leaving dst alone, when all share it.
func (tr *Trace) digitPass(src, dst []uint32, a bool, shift uint) bool {
	var count [257]uint32
	for _, r := range src {
		count[int(tr.digit(r, a, shift))+1]++
	}
	if count[int(tr.digit(src[0], a, shift))+1] == uint32(len(src)) {
		return false
	}
	for d := 1; d < len(count); d++ {
		count[d] += count[d-1]
	}
	for _, r := range src {
		d := tr.digit(r, a, shift)
		dst[count[d]] = r
		count[d]++
	}
	return true
}

func (tr *Trace) digit(r uint32, a bool, shift uint) uint8 {
	if a {
		return uint8(tr.keys[r].A >> shift)
	}
	return uint8(tr.keys[r].B >> shift)
}

// edgeOrder fills c's edge columns and puts the edges in canonical order —
// by (interval, from, to, label, trace) — with stable counting passes over
// a permutation, on trace, label, to, from and the interval's rank.
func (tr *Trace) edgeOrder(c *canon, count []uint32) {
	m := len(tr.edges)
	cols := make([]uint32, 5*m)
	c.from, c.to, c.label, c.trace, c.ival = cols[:m], cols[m:2*m], cols[2*m:3*m], cols[3*m:4*m], cols[4*m:]
	order, tmp := make([]uint32, m), make([]uint32, m)
	for i, e := range tr.edges {
		c.from[i], c.to[i] = uint32(c.nodeMap[e.From]), uint32(c.nodeMap[e.To])
		c.label[i], c.trace[i] = uint32(e.Label), uint32(c.strMap[e.Trace])
		order[i] = uint32(i)
	}
	c.ivals = intervalRanks(tr.edges, c.ival)
	if len(c.ivals) >= len(count) {
		count = make([]uint32, len(c.ivals)+1)
	}
	n := len(tr.keys)
	order, tmp = countingPass(order, tmp, c.trace, len(c.strs)+1, count)
	order, tmp = countingPass(order, tmp, c.label, len(tr.labels), count)
	order, tmp = countingPass(order, tmp, c.to, n, count)
	order, tmp = countingPass(order, tmp, c.from, n, count)
	c.edges, _ = countingPass(order, tmp, c.ival, len(c.ivals), count)
}

func compareIntervals(x, y Interval) int {
	return cmp.Or(cmp.Compare(x.Begin, y.Begin), cmp.Compare(x.End, y.End))
}

// intervalRanks sets rank[i] to the index of edge i's interval among the
// trace's distinct intervals, which it returns ascending. Edges arrive in
// begin order and share a few intervals, so the distinct ones are found
// where the interval changes from one edge to the next, and an edge's rank
// is looked up only at such a change.
func intervalRanks(edges []Edge, rank []uint32) []Interval {
	var ivals []Interval
	for i, e := range edges {
		if i == 0 || e.T != edges[i-1].T {
			ivals = append(ivals, e.T)
		}
	}
	slices.SortFunc(ivals, compareIntervals)
	ivals = slices.Compact(ivals)
	var cur int
	for i, e := range edges {
		if i == 0 || e.T != edges[i-1].T {
			cur, _ = slices.BinarySearchFunc(ivals, e.T, compareIntervals)
		}
		rank[i] = uint32(cur)
	}
	return ivals
}

// eachRun calls f with the value and length of each maximal run of equal
// col[order[i]].
func eachRun(order, col []uint32, f func(v uint32, n int)) {
	for i := 0; i < len(order); {
		v := col[order[i]]
		j := i + 1
		for j < len(order) && col[order[j]] == v {
			j++
		}
		f(v, j-i)
		i = j
	}
}

// appendKey writes the fields of k its kind uses, each a delta from prev's
// while the fields before it repeat and whole after one that does not.
func appendKey(buf []byte, k, prev Key) []byte {
	f, same := kindFields[k.Kind], true
	if f.str {
		buf, same = appendField(buf, same, uint64(k.Str), uint64(prev.Str))
	}
	if f.a {
		buf, same = appendField(buf, same, k.A, prev.A)
	}
	if f.b {
		buf, _ = appendField(buf, same, k.B, prev.B)
	}
	return buf
}

// appendField writes one key field, a delta from old when the fields before
// it repeat (same), and reports whether the fields through it repeat.
func appendField(buf []byte, same bool, cur, old uint64) ([]byte, bool) {
	if !same {
		return binary.AppendUvarint(buf, cur), false
	}
	return binary.AppendUvarint(buf, cur-old), cur == old
}

// Marshal serializes the trace to its package representation.
func (tr *Trace) Marshal() ([]byte, error) {
	c := tr.canonicalize()

	// Room for what an audited trace encodes to (ldv_wide's: 3.3 bytes a
	// node, 2 an edge, 3.2 a dependency).
	size := 64 + 4*len(c.nodes) + 2*len(c.edges) + 4*len(c.deps)
	for _, s := range c.strs {
		size += len(tr.strs[s]) + 2
	}
	for _, table := range tr.attrs {
		size += 6 * len(table)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, traceMagic...)
	buf = append(buf, traceVersion)
	buf = bin.AppendString(buf, tr.Model.Name)
	buf = binary.AppendUvarint(buf, uint64(len(c.strs)))
	for _, s := range c.strs {
		buf = bin.AppendString(buf, tr.strs[s])
	}

	sameGroup := func(r, s uint32) bool { return tr.typ[r] == tr.typ[s] && tr.keys[r].Kind == tr.keys[s].Kind }
	groups := 0
	for i, r := range c.nodes {
		if i == 0 || !sameGroup(r, c.nodes[i-1]) {
			groups++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(groups))
	for i := 0; i < len(c.nodes); {
		first := c.nodes[i]
		j := i + 1
		for j < len(c.nodes) && sameGroup(c.nodes[j], first) {
			j++
		}
		buf = bin.AppendString(buf, tr.types[tr.typ[first]])
		buf = binary.AppendUvarint(buf, uint64(tr.keys[first].Kind))
		buf = binary.AppendUvarint(buf, uint64(j-i))
		prev := Key{}
		for _, r := range c.nodes[i:j] {
			k := tr.keys[r]
			k.Str = c.strMap[k.Str]
			buf = appendKey(buf, k, prev)
			prev = k
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
			entries = append(entries, entry{node: c.nodeMap[r], str: c.strMap[s]})
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

	buf = binary.AppendUvarint(buf, uint64(len(c.edges)))
	buf = binary.AppendUvarint(buf, uint64(len(c.ivals)))
	prevBegin := uint64(0)
	eachRun(c.edges, c.ival, func(v uint32, n int) {
		iv := c.ivals[v]
		buf = binary.AppendUvarint(buf, iv.Begin-prevBegin)
		buf = binary.AppendUvarint(buf, iv.End-iv.Begin)
		buf = binary.AppendUvarint(buf, uint64(n))
		prevBegin = iv.Begin
	})
	var prevRun, prevFrom, prevTo uint32
	for i, e := range c.edges {
		if i == 0 || c.ival[e] != prevRun {
			prevRun, prevFrom = c.ival[e], 0
		}
		buf = binary.AppendUvarint(buf, uint64(c.from[e]-prevFrom))
		prevFrom = c.from[e]
	}
	for i, e := range c.edges {
		if i == 0 || c.ival[e] != prevRun || c.from[e] != prevFrom {
			prevRun, prevFrom, prevTo = c.ival[e], c.from[e], 0
		}
		buf = binary.AppendUvarint(buf, uint64(c.to[e]-prevTo))
		prevTo = c.to[e]
	}
	for _, col := range [2][]uint32{c.label, c.trace} {
		eachRun(c.edges, col, func(v uint32, n int) {
			buf = binary.AppendUvarint(buf, uint64(v))
			buf = binary.AppendUvarint(buf, uint64(n))
		})
	}

	buf = binary.AppendUvarint(buf, uint64(len(c.deps)))
	var prev Dep
	for _, d := range c.deps {
		if d.From != prev.From {
			prev.To = 0
		}
		buf = binary.AppendUvarint(buf, uint64(d.From-prev.From))
		buf = binary.AppendUvarint(buf, uint64(d.To-prev.To))
		prev = d
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

// readField reads one key field appendField wrote and reports whether the
// fields through it repeat the previous key's.
func readField(r *bin.Reader, same bool, old uint64) (uint64, bool) {
	v := r.Uvarint()
	if !same {
		return v, false
	}
	if v > math.MaxUint64-old {
		r.Failf("node key overflows")
		return 0, false
	}
	return old + v, v == 0
}

// readRuns reads a run-length coded column of n values, each below limit, as
// (value, run length) pairs — no run empty or past n, none with the value of
// the run before it — and calls fill for each run.
func readRuns(r *bin.Reader, n, limit int, what string, fill func(lo, hi int, v uint32)) {
	for lo, prev := 0, -1; lo < n && r.Err() == nil; {
		v := index(r, limit, what)
		k := r.Uvarint()
		switch {
		case r.Err() != nil:
		case k == 0 || k > uint64(n-lo):
			r.Failf("%s run of %d at edge %d does not fit the %d edges", what, k, lo, n)
		case int(v) == prev:
			r.Failf("%s run at edge %d repeats the value of the run before it", what, lo)
		default:
			fill(lo, lo+int(k), v)
			prev, lo = int(v), lo+int(k)
		}
	}
}

// Unmarshal reconstructs a trace serialized with Marshal, treating data as
// outside input: every count is checked against the bytes remaining before
// anything is sized by it, every node, string and label index against the
// table it points into, node types, edge types, intervals and dependency
// endpoints against the model exactly as Intern, Link and LinkDep check
// them; every table must be in the order and every coding in the form
// Marshal writes — nodes, dependencies and interval runs strictly
// ascending, edges ascending, the label table the model's, every string
// referenced — so an accepted input marshals back to its own bytes; and
// trailing bytes are rejected. The model must match the serialized model
// name.
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
	used := make([]bool, len(tr.strs))

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
		if n == 0 {
			return nil, fmt.Errorf("node group %d (%s, kind %d) is empty", g, typ, kind)
		}
		prevType, prevKind = ti, kind
		tr.reserve(len(tr.keys) + bin.Reserve(n, 24+1+2*4, r.Len())) // a node's key, type and two slots
		var prev Key
		for i := 0; i < n && r.Err() == nil; i++ {
			k, same := Key{Kind: kind}, true
			if f.str {
				var s uint64
				if s, same = readField(r, same, uint64(prev.Str)); s >= uint64(len(tr.strs)) {
					r.Failf("string index %d out of range (have %d)", s, len(tr.strs))
					break
				}
				k.Str, used[s] = StrID(s), true
			}
			if f.a {
				k.A, same = readField(r, same, prev.A)
			}
			if f.b {
				k.B, same = readField(r, same, prev.B)
			}
			if i > 0 && same {
				r.Failf("%s nodes not strictly ascending at %d", typ, i)
			}
			if kind == KindNamed {
				if pk, _, _, _ := ParseID(tr.strs[k.Str]); pk != KindNamed {
					r.Failf("free-form node id %q is spelled like a typed one", tr.strs[k.Str])
				}
			}
			prev = k
			slot, dup := tr.find(k)
			if dup != 0 {
				r.Failf("a %s node repeats the key of an earlier node", typ)
				break
			}
			tr.add(k, ti, slot)
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
			tr.attrs[a][Ref(next)], used[s] = s, true
		}
	}

	nlabels := r.Count("edge label", 1)
	for i := 0; i < nlabels && r.Err() == nil; i++ {
		l := r.Str()
		switch {
		case r.Err() != nil:
		case indexOf(tr.labels, l) < 0:
			return nil, fmt.Errorf("edge label %q is not part of model %s", l, m.Name)
		case i >= len(tr.labels) || l != tr.labels[i]:
			r.Failf("edge label table is not model %s's, ascending", m.Name)
		}
	}
	if r.Err() == nil && nlabels != len(tr.labels) {
		r.Failf("edge label table has %d labels, model %s has %d", nlabels, m.Name, len(tr.labels))
	}

	nedges := r.Count("edge", 2)
	nruns := r.Count("interval run", 3)
	if r.Err() == nil && nruns > nedges {
		r.Failf("%d interval runs for %d edges", nruns, nedges)
	}
	type run struct {
		iv Interval
		n  int
	}
	ivRuns := bin.Make[run](nruns, r.Len())
	begin, total := uint64(0), 0
	for i := 0; i < nruns && r.Err() == nil; i++ {
		delta, length, n := r.Uvarint(), r.Uvarint(), r.Uvarint()
		switch {
		case r.Err() != nil:
		case delta > math.MaxUint64-begin || length > math.MaxUint64-begin-delta:
			r.Failf("interval run %d overflows", i)
		case i > 0 && delta == 0 && length <= ivRuns[i-1].iv.End-begin:
			r.Failf("interval runs not strictly ascending at %d", i)
		case n == 0 || n > uint64(nedges-total):
			r.Failf("interval run %d of %d edges does not fit the %d edges", i, n, nedges)
		default:
			begin += delta
			ivRuns = append(ivRuns, run{iv: Interval{Begin: begin, End: begin + length}, n: int(n)})
			total += int(n)
		}
	}
	if r.Err() == nil && total != nedges {
		r.Failf("interval runs hold %d of the %d edges", total, nedges)
	}
	edges := bin.Make[Edge](nedges, r.Len())
	for _, run := range ivRuns {
		from := uint64(0)
		for j := 0; j < run.n && r.Err() == nil; j++ {
			d := r.Uvarint()
			if d >= uint64(len(tr.keys))-from {
				r.Failf("edge source out of range (have %d)", len(tr.keys))
				break
			}
			from += d
			edges = append(edges, Edge{From: Ref(from), T: run.iv})
		}
	}
	to := uint64(0)
	for i := 0; i < len(edges) && r.Err() == nil; i++ {
		e := &edges[i]
		if i == 0 || e.T != edges[i-1].T || e.From != edges[i-1].From {
			to = 0
		}
		d := r.Uvarint()
		if d >= uint64(len(tr.keys))-to {
			r.Failf("edge target out of range (have %d)", len(tr.keys))
			break
		}
		to += d
		e.To = Ref(to)
	}
	readRuns(r, len(edges), len(tr.labels), "edge label", func(lo, hi int, v uint32) {
		for i := lo; i < hi; i++ {
			edges[i].Label = uint8(v)
		}
	})
	readRuns(r, len(edges), len(tr.strs), "string index", func(lo, hi int, v uint32) {
		used[v] = true
		for i := lo; i < hi; i++ {
			edges[i].Trace = StrID(v)
		}
	})
	if r.Err() != nil {
		return nil, r.Err()
	}
	for i := 1; i < len(edges); i++ {
		e, p := edges[i], edges[i-1]
		if e.T == p.T && e.From == p.From && e.To == p.To && (e.Label < p.Label || (e.Label == p.Label && e.Trace < p.Trace)) {
			return nil, fmt.Errorf("edge %d out of canonical order", i)
		}
	}
	if err := tr.checkEdges(edges); err != nil {
		return nil, err
	}
	tr.edges = edges

	ndeps := r.Count("dependency", 2)
	var from, dto uint64
	for i := 0; i < ndeps && r.Err() == nil; i++ {
		df, dt := r.Uvarint(), r.Uvarint()
		if r.Err() != nil {
			break
		}
		if df >= uint64(len(tr.keys))-from {
			r.Failf("dependency source out of range (have %d)", len(tr.keys))
			break
		}
		if from += df; df > 0 {
			dto = 0
		} else if i > 0 && dt == 0 {
			r.Failf("dependencies not strictly ascending at %d", i)
			break
		}
		if dt >= uint64(len(tr.keys))-dto {
			r.Failf("dependency target out of range (have %d)", len(tr.keys))
			break
		}
		dto += dt
		if err := tr.LinkDep(Ref(from), Ref(dto)); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	for s := 1; s < len(used); s++ {
		if !used[s] {
			return nil, fmt.Errorf("string %q is referenced by nothing", tr.strs[s])
		}
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
