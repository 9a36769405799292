package engine

import (
	"fmt"
	"sort"
	"strings"

	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Transaction reenactment (GProM-style): REENACT TRANSACTION <id> replays a
// committed transaction's recorded statements against the historical
// snapshot the transaction actually read, in an isolated read-only pass.
// Each statement is replayed with the original's parameter bindings under a
// snapshot that additionally exposes the transaction's own earlier writes
// (self-visibility bounded by the statement's start tick), so the replay
// observes exactly the database state the original statement saw. Writes are
// never re-applied — UPDATE/DELETE replay as dry runs that re-derive the
// affected row set and its lineage; INSERT replays its source query (or
// counts its literal rows).
//
// The what-if variant SUBSTITUTE n WITH '<sql>' replaces statement n before
// replay. Substituted statements run against the same recorded state; a
// substituted write's hypothetical effects do not propagate into later
// statements of the replay (later statements still see the original
// history), which keeps the pass read-only.

// execReenact serves REENACT TRANSACTION. One result row per replayed
// statement: its ordinal, the SQL replayed, the statement kind, the row
// count the replay produced, the row count recorded at original execution,
// whether the two match, the replayed result rows (SELECT only), and the
// lineage (input tuple versions) the replay derived.
func (s *Session) execReenact(st *sqlparse.Reenact, opts ExecOptions, res *Result) error {
	db := s.db
	v, err := evalConst(st.Txn, &execVals{params: opts.Params})
	if err != nil {
		return fmt.Errorf("REENACT TRANSACTION: %w", err)
	}
	if v.Kind() != sqlval.KindInt || v.Int() <= 0 {
		return fmt.Errorf("REENACT TRANSACTION expects a positive transaction id, got %s", v.String())
	}
	txid := v.Int()
	rec, ok := db.TxnHistory(txid)
	if !ok {
		return fmt.Errorf("no recorded history for transaction %d (history covers committed write transactions above the retention horizon)", txid)
	}
	if h := db.vacuumHorizon.Load(); rec.SnapTS < h {
		mAsOfRejected.Inc()
		return fmt.Errorf("transaction %d read at tick %d, below the vacuum horizon %d: its input versions have been reclaimed", txid, rec.SnapTS, h)
	}
	subs := make(map[int]string, len(st.Subs))
	for _, sub := range st.Subs {
		if sub.Ordinal > len(rec.Stmts) {
			return fmt.Errorf("SUBSTITUTE %d: transaction %d recorded only %d statements", sub.Ordinal, txid, len(rec.Stmts))
		}
		subs[sub.Ordinal] = sub.SQL
	}

	res.Columns = []string{"ordinal", "statement", "kind", "rows", "recorded_rows", "match", "result", "lineage"}
	for i, h := range rec.Stmts {
		ord := i + 1
		sql := h.SQL
		if sub, ok := subs[ord]; ok {
			sql = sub
		}
		prep, err := PrepareStatement(sql)
		if err != nil {
			return fmt.Errorf("REENACT statement %d: %w", ord, err)
		}
		stmt := prep.stmt

		// The historical cut at the transaction's snapshot tick, widened so
		// the transaction's own writes from statements before this one are
		// visible — the state the original statement executed against.
		snap := db.takeSnapshotAsOf(rec.SnapTS)
		snap.self = rec.TxnID
		snap.selfBound = h.Start

		replay := func(sel *sqlparse.Select) (*Result, error) {
			ec := &stmtCtx{db: db, snap: snap, ws: s.ws, vals: execVals{params: h.Params}}
			unlock := ec.plan(sel, opts.Span)
			defer unlock()
			inner := &Result{StmtID: db.newStmtID(), Start: rec.SnapTS}
			err := ec.execSelect(sel, ExecOptions{Params: h.Params, WithLineage: true, Proc: opts.Proc}, inner)
			return inner, err
		}

		var rows int
		var resultText, lineageText string
		switch p := stmt.(type) {
		case *sqlparse.Select:
			inner, err := replay(p)
			if err != nil {
				return fmt.Errorf("REENACT statement %d: %w", ord, err)
			}
			rows = len(inner.Rows)
			resultText = renderResultRows(inner.Rows)
			lineageText = renderLineage(inner)
		case *sqlparse.Update:
			inner, err := replay(dryRunSelect(p.Table, p.Where))
			if err != nil {
				return fmt.Errorf("REENACT statement %d: %w", ord, err)
			}
			rows = len(inner.Rows)
			lineageText = renderLineage(inner)
		case *sqlparse.Delete:
			inner, err := replay(dryRunSelect(p.Table, p.Where))
			if err != nil {
				return fmt.Errorf("REENACT statement %d: %w", ord, err)
			}
			rows = len(inner.Rows)
			lineageText = renderLineage(inner)
		case *sqlparse.Insert:
			if p.Query != nil {
				inner, err := replay(p.Query)
				if err != nil {
					return fmt.Errorf("REENACT statement %d: %w", ord, err)
				}
				rows = len(inner.Rows)
				lineageText = renderLineage(inner)
			} else {
				rows = len(p.Rows)
			}
		default:
			return fmt.Errorf("REENACT statement %d: only SELECT, INSERT, UPDATE, DELETE can be replayed, got %T", ord, stmt)
		}

		res.Rows = append(res.Rows, []sqlval.Value{
			sqlval.NewInt(int64(ord)),
			sqlval.NewString(sql),
			sqlval.NewString(stmtKindName(stmt)),
			sqlval.NewInt(int64(rows)),
			sqlval.NewInt(int64(h.Rows)),
			sqlval.NewBool(rows == h.Rows),
			sqlval.NewString(resultText),
			sqlval.NewString(lineageText),
		})
	}
	mReenacts.Inc()
	return nil
}

// dryRunSelect builds the SELECT * equivalent of a write statement's row
// filter — the read-only replay of an UPDATE or DELETE.
func dryRunSelect(table string, where sqlparse.Expr) *sqlparse.Select {
	return &sqlparse.Select{
		Items: []sqlparse.SelectItem{{Star: true}},
		From:  []sqlparse.TableRef{{Name: table}},
		Where: where,
		Limit: -1,
	}
}

// renderResultRows flattens result rows to one deterministic text cell.
func renderResultRows(rows [][]sqlval.Value) string {
	if len(rows) == 0 {
		return ""
	}
	parts := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		parts[i] = "(" + strings.Join(cells, ", ") + ")"
	}
	return strings.Join(parts, "; ")
}

// renderLineage flattens a result's lineage to a sorted, deduplicated list
// of tuple version references: its version set, rendered.
func renderLineage(res *Result) string {
	refs := make([]string, res.TupleValues.Len())
	for i, r := range res.TupleValues.Refs() {
		refs[i] = r.String()
	}
	sort.Strings(refs)
	return strings.Join(refs, " ")
}
