package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"ldv/internal/sqlval"
)

// Inside the executor a lineage list is a list of vids: small integers that
// stand for the stored versions themselves. A leaf assigns a version its vid
// the first time it emits it; joins concatenate, grouping and DISTINCT union
// with a stamp array, and nothing hashes a table name or copies a value.
// The one conversion to TupleRef, the one collection of the referenced
// versions' values, and the one prov_usedby stamp happen in finish, at the
// result boundary.

// vid is a statement-local dense index into lineageSink.versions.
type vid uint32

// version is a stored tuple version a statement's lineage refers to. Rows
// cannot change mid-statement, so the pointers stay valid until finish.
type version struct {
	row   *storedRow
	table *Table
}

// lineageSink is non-nil on a stmtCtx while the statement captures lineage
// (and reenactment reads): leaves register the versions they emit, and
// finish stamps the statement's version set.
type lineageSink struct {
	// stmt is what finish stamps into prov_usedby of every version in the
	// version set: the statement's id, or 0 for a REENACT replay, which no
	// client ran and which stamps nothing.
	stmt     int64
	versions []version
	// leaves records the tables a leaf has been opened on. The value stays
	// nil until a second leaf opens on the same table (self-join, subquery
	// over the outer table); from then on it maps the table's registered
	// versions to their vids, so that a version has one vid however many
	// leaves emit it, and shared is set.
	leaves map[*Table]map[*storedRow]vid
	// shared reports that two lineage lists of this statement may name the
	// same version, i.e. that concatenating them needs deduplication.
	shared bool
	// stamp[v] == epoch marks v as seen in the current union.
	stamp []uint32
	epoch uint32
}

// openLeaf announces a leaf over t expected to emit about n versions, and
// returns the lookup table add needs: nil for the first leaf over t.
func (l *lineageSink) openLeaf(t *Table, n int) map[*storedRow]vid {
	l.versions = slices.Grow(l.versions, n)
	ids, seen := l.leaves[t]
	if !seen {
		if l.leaves == nil {
			l.leaves = map[*Table]map[*storedRow]vid{}
		}
		l.leaves[t] = nil
		return nil
	}
	if ids == nil {
		ids = map[*storedRow]vid{}
		for i, v := range l.versions {
			if v.table == t {
				ids[v.row] = vid(i)
			}
		}
		l.leaves[t], l.shared = ids, true
	}
	return ids
}

// add registers version r of t, emitted by a leaf opened with ids, and
// returns its vid.
func (l *lineageSink) add(ids map[*storedRow]vid, t *Table, r *storedRow) vid {
	if ids != nil {
		if id, ok := ids[r]; ok {
			return id
		}
		ids[r] = vid(len(l.versions))
	}
	l.versions = append(l.versions, version{row: r, table: t})
	return vid(len(l.versions) - 1)
}

// begin starts a union: nothing is marked seen.
func (l *lineageSink) begin() {
	if len(l.stamp) < len(l.versions) {
		l.stamp = append(l.stamp, make([]uint32, len(l.versions)-len(l.stamp))...)
	}
	if l.epoch++; l.epoch == 0 { // wrapped: old stamps would read as current
		clear(l.stamp)
		l.epoch = 1
	}
}

// appendNew appends to dst the members of src not yet seen in the current
// union, in order, marking them seen.
func (l *lineageSink) appendNew(dst, src []vid) []vid {
	for _, id := range src {
		if l.stamp[id] != l.epoch {
			l.stamp[id] = l.epoch
			dst = append(dst, id)
		}
	}
	return dst
}

// concat returns a then b, both duplicate-free, as one duplicate-free list
// cut from ids.
func (l *lineageSink) concat(ids *slab[vid], a, b []vid) []vid {
	switch {
	case len(a) == 0:
		return b
	case len(b) == 0:
		return a
	}
	out := ids.take(len(a) + len(b))
	if !l.shared {
		copy(out[copy(out, a):], b)
		return out
	}
	l.begin()
	return l.appendNew(l.appendNew(out[:0], a), b)
}

// union appends to the duplicate-free dst what the lists add to it, in
// first-occurrence order.
func (l *lineageSink) union(dst []vid, lists ...[]vid) []vid {
	l.begin()
	for _, id := range dst {
		l.stamp[id] = l.epoch
	}
	for _, list := range lists {
		dst = l.appendNew(dst, list)
	}
	return dst
}

// addReads registers rows, versions of t a DML statement consumed, and
// returns reads extended by those it does not already hold.
func (l *lineageSink) addReads(reads []vid, t *Table, rows []*storedRow) []vid {
	known := l.openLeaf(t, len(rows))
	ids := make([]vid, len(rows))
	for i, r := range rows {
		ids[i] = l.add(known, t, r)
	}
	return l.union(reads, ids)
}

// unionGroups unions the tuples' lineage per group: groupOf[i] is tuple i's
// group in [0,n), and a group's list holds its members' versions in
// first-occurrence order. Members are gathered per group first so that one
// stamp array serves every group; a set per group would cost a map each.
func (l *lineageSink) unionGroups(tuples []tuple, groupOf []int32, n int) [][]vid {
	start := make([]int32, n+1)
	total := 0
	for i, g := range groupOf {
		start[g+1]++
		total += len(tuples[i].lineage)
	}
	for g := 0; g < n; g++ {
		start[g+1] += start[g]
	}
	members := make([]int32, len(groupOf))
	next := append([]int32(nil), start[:n]...)
	for i, g := range groupOf {
		members[next[g]] = int32(i)
		next[g]++
	}
	out := make([][]vid, n)
	all := make([]vid, 0, total)
	for g := range out {
		l.begin()
		from := len(all)
		for _, i := range members[start[g]:start[g+1]] {
			all = l.appendNew(all, tuples[i].lineage)
		}
		out[g] = all[from:len(all):len(all)]
	}
	return out
}

// finish is the result boundary, the one place lineage leaves the vid
// representation: the versions rows (one list per result row; nil for DML)
// or reads (nil for queries) mention become res.TupleValues, in set order;
// rows becomes res.Lineage, each vid replaced by its version's position in
// that set. Each version in the set gets the sink's stmt as its prov_usedby
// stamp — the one stamp writer besides the table-file decoders — while the
// statement still holds its table locks. engine.lineage_ns times exactly
// this; carrying vids through the operators is part of their own time.
func (l *lineageSink) finish(res *Result, rows [][]vid, reads []vid) {
	t0 := time.Now()
	defer func() { hLineage.Observe(time.Since(t0)) }()

	// No more than every registered version can be in use.
	used := l.union(make([]vid, 0, len(l.versions)), reads)
	used = l.union(used, rows...)
	slices.SortFunc(used, func(a, b vid) int {
		va, vb := l.versions[a], l.versions[b]
		if va.table != vb.table {
			return cmp.Compare(va.table.Name, vb.table.Name)
		}
		if c := cmp.Compare(va.row.id, vb.row.id); c != 0 {
			return c
		}
		return cmp.Compare(va.row.version, vb.row.version)
	})
	set := VersionSet{refs: make([]TupleRef, len(used)), vals: make([][]sqlval.Value, len(used))}
	pos := make([]int32, len(l.versions))
	for i, id := range used {
		v := l.versions[id]
		set.refs[i], set.vals[i] = v.row.ref(v.table.Name), v.row.vals
		pos[id] = int32(i)
		if l.stmt != 0 {
			v.row.usedBy.Store(l.stmt)
			if i+1 == len(used) || l.versions[used[i+1]].table != v.table {
				v.table.stamped() // the set is in table order: its last stamp
			}
		}
	}
	res.TupleValues = set

	if rows != nil {
		total := 0
		for _, ids := range rows {
			total += len(ids)
		}
		flat := make([]int32, total)
		res.Lineage = make([][]int32, len(rows))
		for i, ids := range rows {
			if len(ids) == 0 {
				continue
			}
			out := flat[:len(ids):len(ids)]
			flat = flat[len(ids):]
			for j, id := range ids {
				out[j] = pos[id]
			}
			res.Lineage[i] = out
		}
	}
}

// LineageRefs returns the versions result row i depends on: Lineage[i]
// resolved against TupleValues.
func (r *Result) LineageRefs(i int) []TupleRef {
	if i >= len(r.Lineage) || len(r.Lineage[i]) == 0 {
		return nil
	}
	refs := r.TupleValues.Refs()
	out := make([]TupleRef, len(r.Lineage[i]))
	for j, p := range r.Lineage[i] {
		out[j] = refs[p]
	}
	return out
}

// VersionSet is a set of tuple versions with their attribute values: the
// provenance tuples a statement read (its Lineage's, or a DML statement's
// read set), which a Perm PROVENANCE query returns inline. It is ordered by
// (table, row, version) with no duplicates, so Refs and Values enumerate it
// deterministically, a version's position is stable, and Lookup is a binary
// search. The zero value is the empty set.
//
// A set holds its values in one of two forms. One the engine builds shares
// each version's value slice with the stored version itself (versions are
// never modified in place). One a client received keeps each version's
// values as the EncodeRow image the server sent and decodes them only when
// Values or Lookup asks; AppendRow hands the image on as it came. Either
// way a VersionSet is immutable, and so is everything reachable from it:
// callers must not write through Refs, Values or a Lookup result.
type VersionSet struct {
	refs []TupleRef
	vals [][]sqlval.Value // parallel to refs; nil in an encoded set
	rows []byte           // an encoded set's row images, back to back
	ends []uint32         // ends[i] is where version i's image ends in rows
}

// NewVersionSet builds a set from parallel slices, which it takes over.
// Input already in set order is adopted as is; anything else is sorted, and
// of several entries for one version the first is kept.
func NewVersionSet(refs []TupleRef, vals [][]sqlval.Value) VersionSet {
	s := VersionSet{refs: refs, vals: vals}
	if inSetOrder(refs) {
		return s
	}
	sort.Stable(byRef(s))
	n := 0
	for i, ref := range s.refs {
		if i == 0 || ref != s.refs[n-1] {
			s.refs[n], s.vals[n] = ref, s.vals[i]
			n++
		}
	}
	s.refs, s.vals = s.refs[:n], s.vals[:n]
	return s
}

// NewEncodedVersionSet builds a set that keeps its values encoded: version
// i's values are the EncodeRow image rows[ends[i-1]:ends[i]] (from 0 for the
// first; ends ascend), an image sqlval.SkipRow has accepted. refs must be in set order —
// positions into the set are what lineage is made of, so a set that arrives
// out of order cannot be mended by sorting it — and the set takes over all
// three slices.
func NewEncodedVersionSet(refs []TupleRef, rows []byte, ends []uint32) (VersionSet, error) {
	if len(ends) != len(refs) || (len(ends) > 0 && int(ends[len(ends)-1]) != len(rows)) {
		return VersionSet{}, fmt.Errorf("version set: %d refs, %d row images over %d bytes", len(refs), len(ends), len(rows))
	}
	if !inSetOrder(refs) {
		return VersionSet{}, fmt.Errorf("version set: refs are not in (table, row, version) order")
	}
	return VersionSet{refs: refs, rows: rows, ends: ends}, nil
}

// inSetOrder reports whether refs strictly ascend in set order.
func inSetOrder(refs []TupleRef) bool {
	for i := 1; i < len(refs); i++ {
		if !refLess(refs[i-1], refs[i]) {
			return false
		}
	}
	return true
}

func refLess(a, b TupleRef) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	if a.Row != b.Row {
		return a.Row < b.Row
	}
	return a.Version < b.Version
}

// byRef sorts a set under construction, keeping refs and vals parallel.
type byRef VersionSet

func (s byRef) Len() int           { return len(s.refs) }
func (s byRef) Less(i, j int) bool { return refLess(s.refs[i], s.refs[j]) }
func (s byRef) Swap(i, j int) {
	s.refs[i], s.refs[j] = s.refs[j], s.refs[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}

// Len returns the number of versions in the set.
func (s VersionSet) Len() int { return len(s.refs) }

// Refs returns the versions in set order.
func (s VersionSet) Refs() []TupleRef { return s.refs }

// Values returns the versions' attribute values, parallel to Refs. An
// encoded set decodes them all, on every call, into one backing array of
// values whose TEXT values share one string.
func (s VersionSet) Values() [][]sqlval.Value {
	if s.vals != nil || len(s.refs) == 0 {
		return s.vals
	}
	text := string(s.rows)
	vals := make([][]sqlval.Value, len(s.refs))
	var slab []sqlval.Value
	for i := range vals {
		from := len(slab)
		slab = s.decode(slab, i, text)
		vals[i] = slab[from:len(slab):len(slab)]
	}
	return vals
}

// Lookup returns the attribute values of version ref, if it is in the set.
func (s VersionSet) Lookup(ref TupleRef) ([]sqlval.Value, bool) {
	i := sort.Search(len(s.refs), func(i int) bool { return !refLess(s.refs[i], ref) })
	if i == len(s.refs) || s.refs[i] != ref {
		return nil, false
	}
	if s.vals != nil {
		return s.vals[i], true
	}
	return s.decode(nil, i, ""), true
}

// AppendRow appends the EncodeRow image of version i's values to dst: the
// bytes an encoded set was given, or the encoding of an engine-built set's
// values.
func (s VersionSet) AppendRow(dst []byte, i int) []byte {
	if s.vals != nil {
		return sqlval.EncodeRow(dst, s.vals[i])
	}
	return append(dst, s.row(i)...)
}

// row returns an encoded set's image of version i.
func (s VersionSet) row(i int) []byte {
	var from uint32
	if i > 0 {
		from = s.ends[i-1]
	}
	return s.rows[from:s.ends[i]]
}

// decode appends an encoded set's version i to dst; text, when non-empty,
// is string(s.rows), which TEXT values are then cut from.
func (s VersionSet) decode(dst []sqlval.Value, i int, text string) []sqlval.Value {
	img := s.row(i)
	if text != "" {
		from := s.ends[i] - uint32(len(img))
		text = text[from:s.ends[i]]
	}
	out, _, err := sqlval.AppendDecodeRow(dst, img, text)
	if err != nil {
		// NewEncodedVersionSet's contract: every image was checked.
		panic(fmt.Sprintf("engine: version %v holds an unchecked row image: %v", s.refs[i], err))
	}
	return out
}
