package engine

import (
	"time"

	"ldv/internal/obs"
	"ldv/internal/plan"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// EXPLAIN [ANALYZE]: the execution tree comes back as ordinary result rows
// (op, detail, rows, time_ns), so any client that can run a SELECT can read
// a plan. Plain EXPLAIN renders the planned pipeline without executing or
// locking anything; ANALYZE runs the inner statement with an opCollector
// attached and reports the rows and wall time each operator actually
// produced, discarding the inner statement's own result rows.

// stmtWrites reports whether executing stmt would modify the database — the
// read-only (replica) gate.
func stmtWrites(stmt sqlparse.Statement) bool {
	switch s := stmt.(type) {
	case *sqlparse.Insert, *sqlparse.Update, *sqlparse.Delete,
		*sqlparse.CreateTable, *sqlparse.DropTable,
		*sqlparse.CreateIndex, *sqlparse.DropIndex:
		return true
	case *sqlparse.Copy:
		return !s.To // COPY ... TO only reads
	case *sqlparse.Vacuum:
		// Reclaims versions and logs a WAL record; replicas receive the
		// horizon through the replication stream instead.
		return true
	case *sqlparse.Explain:
		// Plain EXPLAIN never executes; ANALYZE runs the inner statement.
		return s.Analyze && stmtWrites(s.Stmt)
	}
	return false
}

// opCollector accumulates per-operator execution records for EXPLAIN
// ANALYZE. The nil collector is the common (non-EXPLAIN) case: node then
// runs the operator with no timing, span, or allocation overhead.
type opCollector struct {
	parent *obs.Span
	recs   []opRecord
}

// opRecord is one executed operator: what it did, the planner's output
// estimate, the rows it produced, and the wall time it took (child
// operators' time included — records appear in completion order, children
// before parents).
type opRecord struct {
	op     string
	detail string
	est    float64
	rows   int
	ns     int64
}

// node runs the operator of one plan node, recording what the node says it
// is next to what f says it produced: f returns the operator's output row
// count, and the record is appended after f completes, so nested operators
// (a subquery, the SELECT feeding an INSERT) list before their parent. The
// nil collector runs f and renders nothing of the node.
func (oc *opCollector) node(n plan.Node, f func() (int, error)) error {
	if oc == nil {
		_, err := f()
		return err
	}
	t0 := time.Now()
	sp := oc.parent.Child("engine.op." + n.Op())
	defer sp.End()
	rows, err := f()
	oc.recs = append(oc.recs, opRecord{op: n.Op(), detail: n.Detail(), est: n.EstRows(), rows: rows, ns: int64(time.Since(t0))})
	return err
}

// execExplainStmt serves EXPLAIN and EXPLAIN ANALYZE.
func (s *Session) execExplainStmt(ex *sqlparse.Explain, opts ExecOptions, res *Result) error {
	res.Columns = []string{"op", "detail", "est_rows", "rows", "time_ns"}
	if !ex.Analyze {
		// Plain EXPLAIN renders the planner's tree without executing or
		// locking anything: est_rows from the statistics catalog, rows and
		// time_ns NULL. What is printed is the tree the executor would walk.
		tree := s.db.planTree(dbCatalog{s.db}, nil, ex.Stmt)
		var rows [][]sqlval.Value
		for _, n := range tree.Nodes() {
			rows = append(rows, []sqlval.Value{
				sqlval.NewString(n.Op()),
				sqlval.NewString(n.Detail()),
				sqlval.NewInt(int64(n.EstRows())),
				sqlval.Null,
				sqlval.Null,
			})
		}
		if tree != nil && tree.AsOf != "" {
			rows = append(rows, []sqlval.Value{
				sqlval.NewString("asof"),
				sqlval.NewString("tick " + tree.AsOf),
				sqlval.Null, sqlval.Null, sqlval.Null,
			})
		}
		res.Rows = rows
		return nil
	}

	oc := &opCollector{parent: opts.Span}
	inner := &Result{StmtID: res.StmtID, Start: res.Start, TraceID: res.TraceID}
	t0 := time.Now()
	var err error
	switch st := ex.Stmt.(type) {
	case *sqlparse.Select:
		err = s.execSelectStmt(st, opts, inner, oc)
	default:
		err = s.execDMLStmt(ex.Stmt, opts, inner, oc)
	}
	total := time.Since(t0)
	if err != nil {
		return err
	}
	res.planNS = inner.planNS
	res.RowsAffected = inner.RowsAffected
	res.CommitSeq = inner.CommitSeq

	rows := make([][]sqlval.Value, 0, len(oc.recs)+1)
	for _, r := range oc.recs {
		rows = append(rows, []sqlval.Value{
			sqlval.NewString(r.op),
			sqlval.NewString(r.detail),
			sqlval.NewInt(int64(r.est)),
			sqlval.NewInt(int64(r.rows)),
			sqlval.NewInt(r.ns),
		})
	}
	if sel, ok := ex.Stmt.(*sqlparse.Select); ok && sel.AsOf != nil {
		rows = append(rows, []sqlval.Value{
			sqlval.NewString("asof"),
			sqlval.NewString("tick " + sel.AsOf.String()),
			sqlval.Null, sqlval.Null, sqlval.Null,
		})
	}
	resultRows := len(inner.Rows) + inner.RowsAffected
	rows = append(rows, []sqlval.Value{
		sqlval.NewString("result"),
		sqlval.NewString(""),
		sqlval.Null,
		sqlval.NewInt(int64(resultRows)),
		sqlval.NewInt(int64(total)),
	})
	res.Rows = rows
	return nil
}
