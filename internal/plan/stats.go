package plan

// IndexMeta describes one secondary index for planning: which column it
// covers, its kind, and the statistics the engine maintains as atomics at
// mutation sites.
type IndexMeta struct {
	Name     string
	Column   string
	Kind     string // "hash" (equality only) or "ordered" (equality + range)
	Entries  int64  // indexed versions
	Distinct int64  // distinct keys currently present
}

// TableStats is the planner's view of one table.
type TableStats struct {
	// Rows is the live row count (snapshot-visible cardinality estimate).
	Rows int64
	// Columns lists every column name the executor can resolve against the
	// table in layout order: the schema's columns, then the hidden
	// provenance attributes.
	Columns []string
	// Hidden is how many trailing entries of Columns are hidden attributes:
	// resolvable when named, never part of `*`.
	Hidden int
	// Indexes lists the table's secondary indexes sorted by name, so index
	// selection is deterministic.
	Indexes []IndexMeta
}

// Catalog supplies per-table statistics. Lookups must be cheap and must
// not take table locks (the engine serves them from atomics and immutable
// schema); the second result is false for unknown tables — virtual system
// views, for which the planner falls back to a plain scan with no
// pushdown into the leaf.
type Catalog interface {
	TableStats(name string) (TableStats, bool)
}
