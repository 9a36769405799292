package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"ldv/internal/plan"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Secondary indexes. An index maps a column's value to *every* tuple
// version carrying that value — versions are never unlinked when they are
// end-marked (MVCC needs superseded versions addressable), only when an
// insert is physically rolled back. Readers therefore apply the same
// snapshot-visibility (or, on the write path, the same first-updater-wins)
// logic to index candidates that a full scan applies to t.rows, which
// makes an index scan exactly a full scan restricted to the matching
// buckets. NULL keys are not indexed: the planner only emits index
// predicates for non-NULL literals, and NULL never satisfies an equality
// or range comparison.
//
// Two kinds exist: "hash" (equality lookups, a GroupKey map) and
// "ordered" (equality and range lookups, a sorted bucket slice searched
// with binary search). Structure mutations happen under the owning table's
// write lock — the same lock every row mutation already holds — while the
// entry/key/scan statistics are atomics so the planner and the
// ldv_stat_indexes view can read them without any lock.

// indexBucket is one distinct key of an ordered index and its versions.
type indexBucket struct {
	key  sqlval.Value
	rows []*storedRow
}

// tableIndex is one secondary index over a single column.
type tableIndex struct {
	name   string
	column string
	col    int    // column position in the table schema
	kind   string // "hash" or "ordered"

	hash    map[string][]*storedRow // kind "hash": GroupKey -> versions
	ordered []indexBucket           // kind "ordered": buckets sorted by key

	entries atomic.Int64 // indexed tuple versions
	keys    atomic.Int64 // distinct keys currently present
	scans   atomic.Int64 // index scans served at execution
}

func newTableIndex(name, column string, col int, kind string) *tableIndex {
	ix := &tableIndex{name: name, column: column, col: col, kind: kind}
	if kind == "hash" {
		ix.hash = make(map[string][]*storedRow)
	}
	return ix
}

// bucketAt finds the ordered-bucket position of key: the first bucket not
// sorting below key, and whether that bucket holds exactly key.
func (ix *tableIndex) bucketAt(key sqlval.Value) (int, bool) {
	i := sort.Search(len(ix.ordered), func(j int) bool {
		return !sqlval.SortLess(ix.ordered[j].key, key)
	})
	return i, i < len(ix.ordered) && sameKey(ix.ordered[i].key, key)
}

// sameKey reports whether two non-NULL keys share a bucket of an ordered
// index: Compare calls them equal. (The ordering is SortLess, which is
// Compare's, so the two agree on where a bucket starts and ends; a
// GroupKey, which formats every number as a float, would fold the INTEGERs
// beyond 2^53 that Compare keeps apart.)
func sameKey(a, b sqlval.Value) bool {
	c, ok := a.Compare(b)
	return ok && c == 0
}

// insert adds one version under the table's write lock, skipping NULL keys.
func (ix *tableIndex) insert(r *storedRow) {
	key := r.vals[ix.col]
	if key.IsNull() {
		return
	}
	if ix.kind == "hash" {
		gk := key.GroupKey()
		rows, ok := ix.hash[gk]
		ix.hash[gk] = append(rows, r)
		if !ok {
			ix.keys.Add(1)
		}
	} else {
		i, exact := ix.bucketAt(key)
		if exact {
			ix.ordered[i].rows = append(ix.ordered[i].rows, r)
		} else {
			ix.ordered = append(ix.ordered, indexBucket{})
			copy(ix.ordered[i+1:], ix.ordered[i:])
			ix.ordered[i] = indexBucket{key: key, rows: []*storedRow{r}}
			ix.keys.Add(1)
		}
	}
	ix.entries.Add(1)
}

// remove physically unlinks a version (insert rollback only).
func (ix *tableIndex) remove(r *storedRow) {
	key := r.vals[ix.col]
	if key.IsNull() {
		return
	}
	drop := func(rows []*storedRow) ([]*storedRow, bool) {
		for i, c := range rows {
			if c == r {
				rows[i] = rows[len(rows)-1]
				return rows[:len(rows)-1], true
			}
		}
		return rows, false
	}
	if ix.kind == "hash" {
		gk := key.GroupKey()
		rows, removed := drop(ix.hash[gk])
		if !removed {
			return
		}
		if len(rows) == 0 {
			delete(ix.hash, gk)
			ix.keys.Add(-1)
		} else {
			ix.hash[gk] = rows
		}
		ix.entries.Add(-1)
	} else if i, exact := ix.bucketAt(key); exact {
		rows, removed := drop(ix.ordered[i].rows)
		if !removed {
			return
		}
		if len(rows) == 0 {
			ix.ordered = append(ix.ordered[:i], ix.ordered[i+1:]...)
			ix.keys.Add(-1)
		} else {
			ix.ordered[i].rows = rows
		}
		ix.entries.Add(-1)
	}
}

// rebuild re-derives the whole index from a table's version array (CREATE
// INDEX, applied or executed; table-file loads; a vacuum pass).
func (ix *tableIndex) rebuild(rows []*storedRow) {
	if ix.kind == "hash" {
		ix.hash = make(map[string][]*storedRow)
		nkeys := int64(0)
		for _, r := range rows {
			key := r.vals[ix.col]
			if key.IsNull() {
				continue
			}
			gk := key.GroupKey()
			bucket, ok := ix.hash[gk]
			ix.hash[gk] = append(bucket, r)
			if !ok {
				nkeys++
			}
		}
		ix.keys.Store(nkeys)
		total := int64(0)
		for _, b := range ix.hash {
			total += int64(len(b))
		}
		ix.entries.Store(total)
		return
	}
	type pair struct {
		key sqlval.Value
		r   *storedRow
	}
	pairs := make([]pair, 0, len(rows))
	for _, r := range rows {
		if key := r.vals[ix.col]; !key.IsNull() {
			pairs = append(pairs, pair{key: key, r: r})
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return sqlval.SortLess(pairs[i].key, pairs[j].key) })
	ix.ordered = ix.ordered[:0]
	for _, p := range pairs {
		if n := len(ix.ordered); n > 0 && sameKey(ix.ordered[n-1].key, p.key) {
			ix.ordered[n-1].rows = append(ix.ordered[n-1].rows, p.r)
		} else {
			ix.ordered = append(ix.ordered, indexBucket{key: p.key, rows: []*storedRow{p.r}})
		}
	}
	ix.keys.Store(int64(len(ix.ordered)))
	ix.entries.Store(int64(len(pairs)))
}

// lookupEq returns every version whose key equals key (caller holds at
// least the table's read lock and applies visibility itself).
func (ix *tableIndex) lookupEq(key sqlval.Value) []*storedRow {
	if ix.kind == "hash" {
		return ix.hash[key.GroupKey()]
	}
	if i, exact := ix.bucketAt(key); exact {
		return ix.ordered[i].rows
	}
	return nil
}

// lookupRange streams the versions of every bucket inside [lo, hi] (nil =
// unbounded) to fn, honoring bound inclusivity. Ordered indexes only.
func (ix *tableIndex) lookupRange(lo, hi sqlval.Value, loIncl, hiIncl bool, fn func(*storedRow)) {
	start := 0
	if !lo.IsNull() {
		var exact bool
		start, exact = ix.bucketAt(lo)
		if exact && !loIncl {
			start++
		}
	}
	for i := start; i < len(ix.ordered); i++ {
		b := ix.ordered[i]
		if !hi.IsNull() {
			if sqlval.SortLess(hi, b.key) {
				break
			}
			if !hiIncl && sameKey(b.key, hi) {
				break
			}
		}
		for _, r := range b.rows {
			fn(r)
		}
	}
}

// ---- Table-side registry ----

// indexList returns the table's current index list (sorted by name). The
// list is copy-on-write behind an atomic pointer, so the planner and the
// stat view read it without taking the table lock.
func (t *Table) indexList() []*tableIndex {
	if p := t.indexes.Load(); p != nil {
		return *p
	}
	return nil
}

// findIndex resolves an index by name.
func (t *Table) findIndex(name string) *tableIndex {
	for _, ix := range t.indexList() {
		if ix.name == name {
			return ix
		}
	}
	return nil
}

// addIndex installs a built index (caller holds the table write lock).
func (t *Table) addIndex(ix *tableIndex) {
	next := append(append([]*tableIndex(nil), t.indexList()...), ix)
	sort.Slice(next, func(i, j int) bool { return next[i].name < next[j].name })
	t.indexes.Store(&next)
	t.touch()
}

// removeIndex uninstalls an index by name (caller holds the table write
// lock); it reports whether the index existed.
func (t *Table) removeIndex(name string) bool {
	cur := t.indexList()
	next := make([]*tableIndex, 0, len(cur))
	for _, ix := range cur {
		if ix.name != name {
			next = append(next, ix)
		}
	}
	if len(next) == len(cur) {
		return false
	}
	t.indexes.Store(&next)
	t.touch()
	return true
}

// indexInsert feeds one new version to every secondary index (caller holds
// the table write lock). insertRow calls it; the UPDATE path, which
// appends successor versions directly, calls it too.
func (t *Table) indexInsert(r *storedRow) {
	for _, ix := range t.indexList() {
		ix.insert(r)
	}
}

// indexRemove unlinks a physically removed version from every index.
func (t *Table) indexRemove(r *storedRow) {
	for _, ix := range t.indexList() {
		ix.remove(r)
	}
}

// rebuildIndexes re-derives every index from the version array.
func (t *Table) rebuildIndexes() {
	for _, ix := range t.indexList() {
		ix.rebuild(t.rows)
	}
}

// ---- DDL ----

// execCreateIndex serves CREATE INDEX: it builds the index over the
// table's current versions under the table write lock, installs it, and
// logs the DDL. db.idxMu serializes index DDL so the global index-name
// namespace check cannot race.
func (db *DB) execCreateIndex(s *sqlparse.CreateIndex) (uint64, error) {
	if len(s.Columns) != 1 {
		return 0, fmt.Errorf("CREATE INDEX %q: exactly one column is supported", s.Name)
	}
	kind := s.Kind
	if kind == "" {
		kind = "hash"
	}
	if kind != "hash" && kind != "ordered" {
		return 0, fmt.Errorf("CREATE INDEX %q: unknown kind %q", s.Name, kind)
	}
	if strings.HasPrefix(s.Name, "ldv_stat_") {
		return 0, fmt.Errorf("index name %q is reserved for system views", s.Name)
	}
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	db.idxMu.Lock()
	defer db.idxMu.Unlock()
	if owner := db.indexOwner(s.Name); owner != nil {
		if s.IfNotExists {
			return 0, nil
		}
		return 0, fmt.Errorf("index %q already exists", s.Name)
	}
	t, err := db.lookupTable(s.Table)
	if err != nil {
		return 0, err
	}
	col := s.Columns[0]
	pos := t.Schema.ColumnIndex(col)
	if pos < 0 {
		return 0, fmt.Errorf("table %q has no column %q", s.Table, col)
	}
	ix := newTableIndex(s.Name, col, pos, kind)
	t.mu.Lock()
	ix.rebuild(t.rows)
	t.addIndex(ix)
	t.mu.Unlock()
	seq, err := db.logDDL(redoEntry{kind: walCreateIndex, table: s.Table, idxName: s.Name, idxCol: col, idxKind: kind})
	if err != nil {
		t.mu.Lock()
		t.removeIndex(s.Name)
		t.mu.Unlock()
		return 0, err
	}
	return seq, nil
}

// execDropIndex serves DROP INDEX, resolving the owning table by name
// search (index names are a global namespace).
func (db *DB) execDropIndex(s *sqlparse.DropIndex) (uint64, error) {
	db.commitMu.RLock()
	defer db.commitMu.RUnlock()
	db.idxMu.Lock()
	defer db.idxMu.Unlock()
	t := db.indexOwner(s.Name)
	if t == nil {
		if s.IfExists {
			return 0, nil
		}
		return 0, fmt.Errorf("index %q does not exist", s.Name)
	}
	ix := t.findIndex(s.Name)
	t.mu.Lock()
	t.removeIndex(s.Name)
	t.mu.Unlock()
	seq, err := db.logDDL(redoEntry{kind: walDropIndex, table: t.Name, idxName: s.Name})
	if err != nil {
		t.mu.Lock()
		t.addIndex(ix)
		t.mu.Unlock()
		return 0, err
	}
	return seq, nil
}

// indexOwner finds the table owning an index name, or nil. Index lists are
// lock-free reads; the catalog lock only guards the tables map walk.
func (db *DB) indexOwner(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, t := range db.tables {
		if t.findIndex(name) != nil {
			return t
		}
	}
	return nil
}

// ---- planner statistics ----

// tableStats assembles the planner's view of one table from atomics and
// the immutable schema — no table lock.
func tableStats(t *Table) plan.TableStats {
	cols := make([]string, 0, len(t.Schema.Columns)+4)
	for _, c := range t.Schema.Columns {
		cols = append(cols, c.Name)
	}
	cols = append(cols, provColumns[:]...)
	ts := plan.TableStats{Rows: t.liveRows.Load(), Columns: cols, Hidden: len(provColumns)}
	for _, ix := range t.indexList() {
		ts.Indexes = append(ts.Indexes, plan.IndexMeta{
			Name: ix.name, Column: ix.column, Kind: ix.kind,
			Entries: ix.entries.Load(), Distinct: ix.keys.Load(),
		})
	}
	return ts
}

// stmtCatalog serves the planner from a statement's locked footprint: only
// tables the statement resolved (and locked) are known, so no new locks
// are ever taken at plan time.
type stmtCatalog struct{ ec *stmtCtx }

func (c stmtCatalog) TableStats(name string) (plan.TableStats, bool) {
	t, ok := c.ec.tables[name]
	if !ok {
		return plan.TableStats{}, false
	}
	return tableStats(t), true
}

// dbCatalog serves the planner from the whole catalog under the catalog
// lock only — the plain-EXPLAIN path, which locks no tables.
type dbCatalog struct{ db *DB }

func (c dbCatalog) TableStats(name string) (plan.TableStats, bool) {
	c.db.mu.RLock()
	t, ok := c.db.tables[name]
	c.db.mu.RUnlock()
	if !ok {
		return plan.TableStats{}, false
	}
	return tableStats(t), true
}

// indexCandidates resolves an IndexScanNode's predicate against the index,
// returning every version in the matching buckets. The result is a superset
// of the rows where the predicate holds; callers re-check the full residual
// filter on each candidate.
func indexCandidates(ix *tableIndex, n *plan.IndexScanNode, vals *execVals) []*storedRow {
	if n.Eq != nil {
		return ix.lookupEq(probeValue(n.Eq, vals))
	}
	lo, hi := sqlval.Null, sqlval.Null
	if n.Lo != nil {
		lo = probeValue(n.Lo, vals)
	}
	if n.Hi != nil {
		hi = probeValue(n.Hi, vals)
	}
	var out []*storedRow
	ix.lookupRange(lo, hi, n.LoIncl, n.HiIncl, func(r *storedRow) {
		out = append(out, r)
	})
	return out
}

// probeValue extracts the constant an index probe compares against: a
// literal, or a `?` parameter or scalar subquery resolved against the
// execution's value table. The planner only emits probes built from these
// (plan.literalExpr), so anything else is a planner bug; Null (matching
// nothing via lookupEq, everything via an unbounded range end) keeps the
// executor safe regardless — the residual filter still decides membership.
func probeValue(e sqlparse.Expr, vals *execVals) sqlval.Value {
	switch x := e.(type) {
	case *sqlparse.Literal:
		return x.Value
	case *sqlparse.Param:
		if x.Index >= 1 && x.Index <= len(vals.params) {
			return vals.params[x.Index-1]
		}
	case *sqlparse.SubqueryExpr:
		return vals.subs[x].val
	}
	return sqlval.Null
}
