package engine

import (
	"sort"
	"time"

	"ldv/internal/obs"
	"ldv/internal/sqlparse"
)

// Statements declare their whole table footprint before touching any data:
// lockTables walks the AST (including every subquery position), resolves the
// names under the catalog lock, and acquires the per-table RWMutexes in
// sorted name order — write mode subsuming read mode. Sorted acquisition
// makes the locking deadlock-free, and the up-front footprint means no lock
// is ever taken inside a scan (table RWMutexes are not reentrant, which
// matters for statements like INSERT INTO t SELECT ... FROM t).

// lockSet is a statement's table footprint.
type lockSet struct {
	reads  map[string]bool
	writes map[string]bool
}

// stmtTables computes the lock set of a statement.
func stmtTables(stmt sqlparse.Statement) lockSet {
	ls := lockSet{reads: map[string]bool{}, writes: map[string]bool{}}
	switch s := stmt.(type) {
	case *sqlparse.Insert:
		ls.writes[s.Table] = true
	case *sqlparse.Update:
		ls.writes[s.Table] = true
	case *sqlparse.Delete:
		ls.writes[s.Table] = true
	}
	ls.addReads(stmt)
	return ls
}

// addReads adds the tables stmt reads: a SELECT's FROM entries, and those of
// the query feeding an INSERT and of every subquery in any of its
// expressions, however deep.
func (ls *lockSet) addReads(stmt sqlparse.Statement) {
	switch s := stmt.(type) {
	case *sqlparse.Select:
		for _, r := range s.From {
			ls.reads[r.Name] = true
		}
		for _, j := range s.Joins {
			ls.reads[j.Table.Name] = true
		}
	case *sqlparse.Insert:
		if s.Query != nil {
			ls.addReads(s.Query)
		}
	}
	sqlparse.StmtExprs(stmt, func(e sqlparse.Expr) {
		sqlparse.Walk(e, func(x sqlparse.Expr) bool {
			if q := sqlparse.Subquery(x); q != nil {
				ls.addReads(q)
			}
			return true
		})
	})
}

// lockTables resolves and locks the statement's footprint, filling
// ec.tables, and returns the release function. Names that do not resolve
// are simply absent from the footprint; the executor reports them as
// missing tables when it looks them up.
func (ec *stmtCtx) lockTables(ls lockSet) func() {
	names := make([]string, 0, len(ls.reads)+len(ls.writes))
	for n := range ls.writes {
		names = append(names, n)
	}
	for n := range ls.reads {
		if !ls.writes[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	ec.db.mu.RLock()
	ec.tables = make(map[string]*Table, len(names))
	locked := make([]*Table, 0, len(names))
	writeMode := make([]bool, 0, len(names))
	for _, n := range names {
		if t, ok := ec.db.tables[n]; ok {
			ec.tables[n] = t
			locked = append(locked, t)
			writeMode = append(writeMode, ls.writes[n])
		}
	}
	ec.db.mu.RUnlock()

	t0 := time.Now()
	for i, t := range locked {
		w0 := time.Now()
		// Uncontended acquisitions take the try fast path and are not
		// waits; only actual blocking reaches lockSlow and the lock.table
		// wait event (PostgreSQL's wait-event semantics).
		if writeMode[i] {
			if !t.mu.TryLock() {
				ec.lockSlow(t, true)
			}
		} else {
			if !t.mu.TryRLock() {
				ec.lockSlow(t, false)
			}
		}
		t.lockWaits.Add(1)
		t.lockWaitNS.Add(int64(time.Since(w0)))
	}
	hLockWait.Observe(time.Since(t0))

	return func() {
		for i := len(locked) - 1; i >= 0; i-- {
			if writeMode[i] {
				locked[i].mu.Unlock()
			} else {
				locked[i].mu.RUnlock()
			}
		}
	}
}

// lockSlow blocks on one contended table lock under a published lock.table
// wait, so the stall is visible to the ASH sampler and accumulates into the
// cumulative wait-event stats while it is still in progress.
func (ec *stmtCtx) lockSlow(t *Table, write bool) {
	end := obs.WaitBegin(ec.ws, obs.WaitLockTable)
	defer end()
	if write {
		t.mu.Lock()
	} else {
		t.mu.RLock()
	}
}
