package engine

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"ldv/internal/sqlval"
)

// Inside the executor a lineage list is a list of vids: small integers that
// stand for the stored versions themselves. A leaf assigns a version its vid
// the first time it emits it; joins concatenate, grouping and DISTINCT union
// with a stamp array, and nothing hashes a table name or copies a value.
// The one conversion to TupleRef, and the one collection of the referenced
// versions' values, happen in finish, at the result boundary.

// vid is a statement-local dense index into lineageSink.versions.
type vid uint32

// version is a stored tuple version a statement's lineage refers to. Rows
// cannot change mid-statement, so the pointers stay valid until finish.
type version struct {
	row   *storedRow
	table *Table
}

// lineageSink is non-nil on a stmtCtx while the statement captures lineage
// (and reenactment reads): scans stamp prov_usedby with stmt and register
// the versions they emit.
type lineageSink struct {
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
// representation: rows (one list per result row; nil for DML) becomes
// res.Lineage, reads (nil for queries) becomes res.ReadRefs, and the
// versions either mentions become res.TupleValues. engine.lineage_ns times
// exactly this; carrying vids through the operators is part of their own
// time.
func (l *lineageSink) finish(res *Result, rows [][]vid, reads []vid) {
	t0 := time.Now()
	defer func() { hLineage.Observe(time.Since(t0)) }()
	total := len(reads)
	for _, ids := range rows {
		total += len(ids)
	}
	refs := make([]TupleRef, total)
	convert := func(ids []vid) []TupleRef {
		if len(ids) == 0 {
			return nil
		}
		out := refs[:len(ids):len(ids)]
		refs = refs[len(ids):]
		for i, id := range ids {
			v := l.versions[id]
			out[i] = v.row.ref(v.table.Name)
		}
		return out
	}
	if rows != nil {
		res.Lineage = make([][]TupleRef, len(rows))
		for i, ids := range rows {
			res.Lineage[i] = convert(ids)
		}
	}
	res.ReadRefs = convert(reads)

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
	for i, id := range used {
		v := l.versions[id]
		set.refs[i], set.vals[i] = v.row.ref(v.table.Name), v.row.vals
	}
	res.TupleValues = set
}

// VersionSet is a set of tuple versions with their attribute values: the
// provenance tuples a statement's Lineage and ReadRefs refer to, which a
// Perm PROVENANCE query returns inline. It is ordered by (table, row,
// version) with no duplicates, so Refs and Values enumerate it
// deterministically and Lookup is a binary search. The zero value is the
// empty set.
//
// A VersionSet is immutable, and so is everything reachable from it: a set
// built by the engine shares each version's value slice with the stored
// version itself (versions are never modified in place), so callers must
// not write through Refs, Values or a Lookup result.
type VersionSet struct {
	refs []TupleRef
	vals [][]sqlval.Value // parallel to refs
}

// NewVersionSet builds a set from parallel slices, which it takes over.
// Input already in set order (what a server sends) is adopted as is;
// anything else is sorted, and of several entries for one version the first
// is kept.
func NewVersionSet(refs []TupleRef, vals [][]sqlval.Value) VersionSet {
	s := VersionSet{refs: refs, vals: vals}
	ordered := true
	for i := 1; i < len(refs) && ordered; i++ {
		ordered = refLess(refs[i-1], refs[i])
	}
	if ordered {
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

// Values returns the versions' attribute values, parallel to Refs.
func (s VersionSet) Values() [][]sqlval.Value { return s.vals }

// Lookup returns the attribute values of version ref, if it is in the set.
func (s VersionSet) Lookup(ref TupleRef) ([]sqlval.Value, bool) {
	i := sort.Search(len(s.refs), func(i int) bool { return !refLess(s.refs[i], ref) })
	if i < len(s.refs) && s.refs[i] == ref {
		return s.vals[i], true
	}
	return nil, false
}
