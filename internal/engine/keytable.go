package engine

import (
	"slices"

	"ldv/internal/sqlval"
)

// keyTable is the engine's one value-keyed hash table: a hash join's build
// side, GROUP BY's groups, DISTINCT's rows, a DISTINCT aggregate's values,
// a hash index's buckets and an IN set's members. An entry is a key of
// width values, hashed with sqlval.Value.Hash. The entries of a bucket are
// chained by index in the order they were added, and a lookup confirms a
// candidate with sqlval.Value.SameKey column by column — so 2 meets 2.0,
// 2^53 does not meet 2^53 + 1, and no two keys run together across
// columns. A lookup finds the oldest matching entry first, which keeps
// groups and DISTINCT rows in first-appearance order and a join's matches
// in build order.
type keyTable struct {
	width  int
	keys   []sqlval.Value // entry e's key is keys[e*width : (e+1)*width]
	hashes []uint64       // by entry
	next   []int32        // by entry: the next entry of its bucket, or -1
	heads  []int32        // by bucket: its first entry, or -1
	tails  []int32        // by bucket: its last entry, or -1
}

// newKeyTable returns an empty table for keys of width values, sized for
// about hint entries.
func newKeyTable(width, hint int) *keyTable {
	kt := &keyTable{
		width:  width,
		keys:   make([]sqlval.Value, 0, hint*width),
		hashes: make([]uint64, 0, hint),
		next:   make([]int32, 0, hint),
	}
	kt.rehash(hint)
	return kt
}

// hashKey is the hash of a key of several values.
func hashKey(key []sqlval.Value) uint64 {
	var h uint64
	for _, v := range key {
		h = v.Hash(h)
	}
	return h
}

// find returns the first entry whose key is key (h = hashKey(key)), or -1.
func (kt *keyTable) find(key []sqlval.Value, h uint64) int32 {
	return kt.scan(kt.heads[h&uint64(len(kt.heads)-1)], key, h)
}

// findNext returns the next entry after e whose key is key, or -1.
func (kt *keyTable) findNext(e int32, key []sqlval.Value, h uint64) int32 {
	return kt.scan(kt.next[e], key, h)
}

func (kt *keyTable) scan(e int32, key []sqlval.Value, h uint64) int32 {
chain:
	for ; e >= 0; e = kt.next[e] {
		if kt.hashes[e] != h {
			continue
		}
		k := kt.keys[int(e)*kt.width:]
		for i, v := range key {
			if !k[i].SameKey(v) {
				continue chain
			}
		}
		return e
	}
	return -1
}

// add stores a copy of key as a new entry at the end of its bucket's chain
// and returns the entry.
func (kt *keyTable) add(key []sqlval.Value, h uint64) int32 {
	e := int32(len(kt.hashes))
	if len(kt.hashes) == cap(kt.hashes) {
		// Double the entry columns: append grows a large slice by a quarter,
		// which copies a table that grows to n entries about 5n times over.
		n := max(len(kt.hashes), 8)
		kt.keys = slices.Grow(kt.keys, n*kt.width)
		kt.hashes = slices.Grow(kt.hashes, n)
		kt.next = slices.Grow(kt.next, n)
	}
	kt.keys = append(kt.keys, key...)
	kt.hashes = append(kt.hashes, h)
	kt.next = append(kt.next, -1)
	if len(kt.hashes) > len(kt.heads) {
		kt.rehash(2 * len(kt.heads)) // links e with the rest
	} else {
		kt.link(e)
	}
	return e
}

// link appends entry e to its bucket's chain.
func (kt *keyTable) link(e int32) {
	b := kt.hashes[e] & uint64(len(kt.heads)-1)
	kt.next[e] = -1
	if t := kt.tails[b]; t >= 0 {
		kt.next[t] = e
	} else {
		kt.heads[b] = e
	}
	kt.tails[b] = e
}

// rehash makes the bucket count the power of two at or above n and
// relinks every entry in entry order.
func (kt *keyTable) rehash(n int) {
	size := 1
	for size < n {
		size *= 2
	}
	kt.heads, kt.tails = make([]int32, size), make([]int32, size)
	for b := range kt.heads {
		kt.heads[b], kt.tails[b] = -1, -1
	}
	for e := range kt.hashes {
		kt.link(int32(e))
	}
}
