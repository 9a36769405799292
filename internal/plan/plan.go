// Package plan lowers parsed SQL statements into explicit, immutable plan
// trees. The planner chooses between full scans and secondary-index scans,
// pushes predicates toward the leaves, and greedily reorders joins, all
// driven by per-table statistics supplied through the Catalog interface
// (row counts and per-column distinct estimates maintained as atomics at
// the engine's mutation sites). PlanStatement is the one entry: queries, DML
// and the uncorrelated subqueries of either are lowered by it, the engine
// executes a statement by walking the tree it returned, and EXPLAIN renders
// the same tree, so what is printed is what runs. Lineage capture also rides
// the tree: each node declares how it contributes provenance edges via its
// LineageMode.
package plan

import (
	"strconv"
	"strings"

	"ldv/internal/sqlparse"
)

// LineageMode declares how an operator contributes provenance edges when a
// statement runs with lineage capture enabled.
type LineageMode int

const (
	// LineageNone contributes nothing (e.g. a table-less VALUES source).
	LineageNone LineageMode = iota
	// LineageSource seeds each output tuple's lineage with the scanned
	// version and stamps prov_usedby — base-table access paths.
	LineageSource
	// LineageMerge merges the lineage of the input tuples it combines
	// (joins).
	LineageMerge
	// LineageUnion unions lineage across all inputs collapsed into one
	// output tuple (aggregation, duplicate elimination).
	LineageUnion
	// LineagePass forwards input lineage unchanged (filter, sort, limit,
	// projection).
	LineagePass
	// LineageWrite records read refs (reenactment inputs) and written refs
	// for the versions a DML operator consumes and produces.
	LineageWrite
)

// Explainable is the explain surface of a plan node: the operator name and
// detail shown by EXPLAIN plus the planner's output-cardinality estimate.
type Explainable interface {
	Op() string
	Detail() string
	EstRows() float64
}

// LineageOp is the provenance surface of a plan node.
type LineageOp interface {
	Lineage() LineageMode
}

// Node is one operator of an immutable plan tree. Children are ordered;
// EXPLAIN renders the tree in post order (children before parents), which
// matches the executor's completion order.
type Node interface {
	Explainable
	LineageOp
	Children() []Node
}

// Tree is a fully lowered statement.
type Tree struct {
	Root Node
	// Select is the query the tree's operators evaluate (nil for UPDATE,
	// DELETE and INSERT ... VALUES): the nodes name their stages, the select
	// list, grouping and ordering expressions are read from here. A tree
	// served from a plan cache therefore runs with the AST it was planned
	// from, whichever parse of the same text asked for it.
	Select *sqlparse.Select
	// Init holds the statement's uncorrelated subqueries in the order the
	// statement spells them, each nesting its own. The executor runs them
	// once, before Root, and the expressions that read their results find
	// them by AST node, so the tree itself embeds nothing an execution
	// computed.
	Init []InitPlan
	// Reordered is set when the greedy join order differs from the
	// syntactic FROM order; the executor then restores the syntactic
	// column order before projection.
	Reordered bool
	// AsOf is the rendered AS OF bound of a time-travel query ("" for
	// head reads). The scan operators need no change — secondary indexes
	// retain dead versions and the executor applies snapshot visibility
	// per candidate row — so the bound is plan-wide metadata, rendered by
	// EXPLAIN as its own row.
	AsOf string
}

// InitPlan is one uncorrelated subquery: the expression that reads its
// result (a *sqlparse.SubqueryExpr, *sqlparse.ExistsExpr, or *sqlparse.InExpr
// with Sub) and the plan that computes it. Tree is nil for a subquery nested
// deeper than MaxSubqueryDepth: planning never fails, so the executor
// raises the error when it gets there.
type InitPlan struct {
	Expr sqlparse.Expr
	Tree *Tree
}

// MaxSubqueryDepth bounds how deep subqueries may nest.
const MaxSubqueryDepth = 16

// Nodes returns the tree's operators in the order EXPLAIN prints and the
// executor completes them: each init-plan's operators, then the root's in
// post order (children first).
func (t *Tree) Nodes() []Node {
	if t == nil || t.Root == nil {
		return nil
	}
	var out []Node
	var walk func(Node)
	walk = func(n Node) {
		for _, c := range n.Children() {
			walk(c)
		}
		out = append(out, n)
	}
	for _, ip := range t.Init {
		out = append(out, ip.Tree.Nodes()...)
	}
	walk(t.Root)
	return out
}

// Leaf is what every base-table access path carries besides its predicate.
// The executor fuses the FilterNode directly above a leaf into the leaf's
// loop: conjuncts run against the stored versions and only survivors are
// materialized, so Cols and StopAfter describe the rows that pass that
// filter (every visible row when there is none).
type Leaf struct {
	Table string
	As    string // effective (aliased) name
	// Cols is the tuple layout the leaf emits: the columns the statement
	// can read from this table, in schema order, hidden attributes last and
	// only when named. nil means every column plus all hidden attributes
	// (tables without a known schema, and DML, which emits no tuples).
	Cols []string
	// StopAfter, when positive, ends the scan once that many rows have
	// been emitted (a LIMIT with nothing between it and the leaf that
	// needs to see more). 0 scans everything.
	StopAfter int
	Est       float64
}

func (l *Leaf) stopText() string {
	if l.StopAfter <= 0 {
		return ""
	}
	return " (stop after " + strconv.Itoa(l.StopAfter) + ")"
}

// ScanNode reads every version of a base or virtual table; visibility is
// applied by the executor.
type ScanNode struct {
	Leaf
}

func (n *ScanNode) Op() string           { return "scan" }
func (n *ScanNode) Detail() string       { return n.As + n.stopText() }
func (n *ScanNode) EstRows() float64     { return n.Est }
func (n *ScanNode) Children() []Node     { return nil }
func (n *ScanNode) Lineage() LineageMode { return LineageSource }

// IndexScanNode reads only the versions matching an index predicate: an
// equality key (Eq, hash or ordered index) or a range (Lo/Hi, ordered
// index only). Index entries point at version chains, so the executor
// still applies snapshot visibility to every candidate.
type IndexScanNode struct {
	Leaf
	Index  string
	Column string
	Kind   string        // "hash" or "ordered"
	Eq     sqlparse.Expr // equality key; nil for a range scan
	Lo, Hi sqlparse.Expr // range bounds; nil = unbounded
	LoIncl bool
	HiIncl bool
}

func (n *IndexScanNode) Op() string { return "index_scan" }

func (n *IndexScanNode) Detail() string {
	var sb strings.Builder
	sb.WriteString(n.As)
	sb.WriteString(" via ")
	sb.WriteString(n.Index)
	sb.WriteString(" (")
	sb.WriteString(n.predText())
	sb.WriteString(")")
	sb.WriteString(n.stopText())
	return sb.String()
}

func (n *IndexScanNode) predText() string {
	if n.Eq != nil {
		return n.Column + " = " + n.Eq.String()
	}
	var parts []string
	if n.Lo != nil {
		op := ">"
		if n.LoIncl {
			op = ">="
		}
		parts = append(parts, n.Column+" "+op+" "+n.Lo.String())
	}
	if n.Hi != nil {
		op := "<"
		if n.HiIncl {
			op = "<="
		}
		parts = append(parts, n.Column+" "+op+" "+n.Hi.String())
	}
	return strings.Join(parts, " AND ")
}

func (n *IndexScanNode) EstRows() float64     { return n.Est }
func (n *IndexScanNode) Children() []Node     { return nil }
func (n *IndexScanNode) Lineage() LineageMode { return LineageSource }

// ValuesNode is the single-empty-tuple source of a table-less SELECT.
type ValuesNode struct{}

func (n *ValuesNode) Op() string           { return "values" }
func (n *ValuesNode) Detail() string       { return "" }
func (n *ValuesNode) EstRows() float64     { return 1 }
func (n *ValuesNode) Children() []Node     { return nil }
func (n *ValuesNode) Lineage() LineageMode { return LineageNone }

// FilterNode applies AND-connected conjuncts. Resolved marks filters whose
// column references the planner proved to bind in the input; the final
// leftover filter is unresolved, and binding it in the executor is what
// surfaces "no such column" / "aggregate not allowed" errors.
type FilterNode struct {
	Input     Node
	Conjuncts []sqlparse.Expr
	Resolved  bool
	Est       float64
}

func (n *FilterNode) Op() string           { return "filter" }
func (n *FilterNode) Detail() string       { return exprListText(n.Conjuncts) }
func (n *FilterNode) EstRows() float64     { return n.Est }
func (n *FilterNode) Children() []Node     { return []Node{n.Input} }
func (n *FilterNode) Lineage() LineageMode { return LineagePass }

// HashJoinNode equi-joins two subtrees (cross join when no keys). LeftKeys
// resolve in the left subtree's output, RightKeys in the right's.
type HashJoinNode struct {
	Left, Right Node
	LeftKeys    []sqlparse.Expr
	RightKeys   []sqlparse.Expr
	With        string // effective name of the joined-in leaf, for detail
	Est         float64
}

func (n *HashJoinNode) Op() string           { return "hash_join" }
func (n *HashJoinNode) Detail() string       { return n.With }
func (n *HashJoinNode) EstRows() float64     { return n.Est }
func (n *HashJoinNode) Children() []Node     { return []Node{n.Left, n.Right} }
func (n *HashJoinNode) Lineage() LineageMode { return LineageMerge }

// AggregateNode applies GROUP BY / aggregate semantics, including HAVING.
type AggregateNode struct {
	Input   Node
	GroupBy []sqlparse.Expr
	Est     float64
}

func (n *AggregateNode) Op() string           { return "aggregate" }
func (n *AggregateNode) Detail() string       { return exprListText(n.GroupBy) }
func (n *AggregateNode) EstRows() float64     { return n.Est }
func (n *AggregateNode) Children() []Node     { return []Node{n.Input} }
func (n *AggregateNode) Lineage() LineageMode { return LineageUnion }

// DistinctNode eliminates duplicate projected rows.
type DistinctNode struct {
	Input Node
	Est   float64
}

func (n *DistinctNode) Op() string           { return "distinct" }
func (n *DistinctNode) Detail() string       { return "" }
func (n *DistinctNode) EstRows() float64     { return n.Est }
func (n *DistinctNode) Children() []Node     { return []Node{n.Input} }
func (n *DistinctNode) Lineage() LineageMode { return LineageUnion }

// SortNode orders the projected rows.
type SortNode struct {
	Input Node
	Keys  []sqlparse.Expr
	Est   float64
}

func (n *SortNode) Op() string           { return "sort" }
func (n *SortNode) Detail() string       { return exprListText(n.Keys) }
func (n *SortNode) EstRows() float64     { return n.Est }
func (n *SortNode) Children() []Node     { return []Node{n.Input} }
func (n *SortNode) Lineage() LineageMode { return LineagePass }

// TopNNode is a sort fused with the limit directly above it: the executor
// keeps only the N best rows while it reads its input (ties keep input
// order, as a stable sort followed by truncation would) and never orders
// the rest. Its op name spells out both stages it replaces.
type TopNNode struct {
	Input Node
	Keys  []sqlparse.Expr
	N     int
	Est   float64
}

func (n *TopNNode) Op() string           { return "sort_limit" }
func (n *TopNNode) Detail() string       { return exprListText(n.Keys) + " limit " + strconv.Itoa(n.N) }
func (n *TopNNode) EstRows() float64     { return n.Est }
func (n *TopNNode) Children() []Node     { return []Node{n.Input} }
func (n *TopNNode) Lineage() LineageMode { return LineagePass }

// LimitNode truncates the result.
type LimitNode struct {
	Input Node
	N     int
	Est   float64
}

func (n *LimitNode) Op() string           { return "limit" }
func (n *LimitNode) Detail() string       { return strconv.Itoa(n.N) }
func (n *LimitNode) EstRows() float64     { return n.Est }
func (n *LimitNode) Children() []Node     { return []Node{n.Input} }
func (n *LimitNode) Lineage() LineageMode { return LineagePass }

// ProjectNode evaluates the select list. It is the root of every SELECT
// plan; DISTINCT/sort/limit nodes sit below it because the executor orders
// and truncates before it evaluates the select list for the rows that
// remain (sort keys are computed from the input tuples; only DISTINCT needs
// every row projected first).
type ProjectNode struct {
	Input Node
	Est   float64
}

func (n *ProjectNode) Op() string           { return "project" }
func (n *ProjectNode) Detail() string       { return "" }
func (n *ProjectNode) EstRows() float64     { return n.Est }
func (n *ProjectNode) Children() []Node     { return []Node{n.Input} }
func (n *ProjectNode) Lineage() LineageMode { return LineagePass }

// InsertNode appends new versions; Query is the source subtree for
// INSERT ... SELECT (nil for VALUES).
type InsertNode struct {
	Table string
	Query Node
	Est   float64
}

func (n *InsertNode) Op() string       { return "insert" }
func (n *InsertNode) Detail() string   { return n.Table }
func (n *InsertNode) EstRows() float64 { return n.Est }
func (n *InsertNode) Children() []Node {
	if n.Query != nil {
		return []Node{n.Query}
	}
	return nil
}
func (n *InsertNode) Lineage() LineageMode { return LineageWrite }

// UpdateNode end-marks matched versions and appends successors. Access is
// the access-path subtree locating the matched rows (scan or index scan,
// optionally under a residual filter).
type UpdateNode struct {
	Table  string
	Access Node
	Est    float64
}

func (n *UpdateNode) Op() string           { return "update" }
func (n *UpdateNode) Detail() string       { return n.Table }
func (n *UpdateNode) EstRows() float64     { return n.Est }
func (n *UpdateNode) Children() []Node     { return []Node{n.Access} }
func (n *UpdateNode) Lineage() LineageMode { return LineageWrite }

// DeleteNode end-marks matched versions.
type DeleteNode struct {
	Table  string
	Access Node
	Est    float64
}

func (n *DeleteNode) Op() string           { return "delete" }
func (n *DeleteNode) Detail() string       { return n.Table }
func (n *DeleteNode) EstRows() float64     { return n.Est }
func (n *DeleteNode) Children() []Node     { return []Node{n.Access} }
func (n *DeleteNode) Lineage() LineageMode { return LineageWrite }

// exprListText renders expressions as a comma-separated detail string.
func exprListText(exprs []sqlparse.Expr) string {
	if len(exprs) == 0 {
		return ""
	}
	parts := make([]string, len(exprs))
	for i, e := range exprs {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}
