package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"ldv/internal/obs"
	"ldv/internal/plan"
	"ldv/internal/sqlparse"
	"ldv/internal/sqlval"
)

// Prepared statements parse once and execute many times with positional `?`
// parameters. The AST is immutable after the parse (the subquery resolver is
// copy-on-write and plan trees never alias executor state), so one
// *PreparedStmt is safe to share across sessions — the server keeps a
// per-connection name registry, but the underlying statement and its cached
// plan are process-wide.
//
// The plan cache maps a statement's exact text → plan tree: keyed by the
// text's 64-bit hash, each entry carrying the text itself, so that two
// statements whose hashes collide displace each other instead of running
// each other's plan. A plan embeds the statement's constants (index probe keys, filter
// conjuncts, LIMIT), so only statements that agree on every literal may
// share one: the fingerprint, which normalizes literals to `?`, is too
// coarse a key — `WHERE b = 2` would be served the plan of `WHERE b = 3`.
// Values that vary per execution belong in `?` parameters, which plans
// resolve at run time. Entries are validated against the DB's DDL epoch on
// every lookup: table or index DDL (local exec, crash recovery, replication
// apply) bumps the epoch, and a stale entry is dropped and re-planned
// instead of served.

var (
	mPlanCacheHits          = obs.NewCounter("plan.cache_hits", "Plan-cache lookups served from a cached plan tree")
	mPlanCacheMisses        = obs.NewCounter("plan.cache_misses", "Plan-cache lookups that had to plan from scratch")
	mPlanCacheInvalidations = obs.NewCounter("plan.cache_invalidations", "Cached plans discarded because DDL bumped the catalog epoch")
)

// PreparedStmt is one parsed, fingerprinted statement ready for repeated
// execution. Immutable after PrepareStatement except for the counters.
type PreparedStmt struct {
	// SQL is the original statement text.
	SQL string
	// NumParams is the number of positional `?` placeholders a Bind must
	// supply values for.
	NumParams int

	p Parsed
	// textHash keys the plan cache.
	textHash uint64
	// cacheable marks SELECTs eligible for the plan cache. Statements with
	// subqueries are excluded: the resolver substitutes per-execution
	// literals before planning, so their plans are not reusable.
	cacheable bool

	calls     atomic.Int64
	cacheHits atomic.Int64
}

// Fingerprint returns the statement's normalized-text fingerprint — the
// join key against ldv_stat_statements.
func (ps *PreparedStmt) Fingerprint() sqlparse.Fingerprint { return ps.p.Fingerprint }

// Calls returns how many times the statement has been executed.
func (ps *PreparedStmt) Calls() int64 { return ps.calls.Load() }

// CacheHits returns how many executions reused a cached plan tree.
func (ps *PreparedStmt) CacheHits() int64 { return ps.cacheHits.Load() }

// PrepareStatement parses and fingerprints a statement for repeated
// execution, recording engine.parse_ns like every other parse entry point.
func PrepareStatement(sql string) (*PreparedStmt, error) {
	t0 := time.Now()
	stmt, fp, nparams, err := sqlparse.ParsePrepared(sql)
	d := time.Since(t0)
	hParse.Observe(d)
	if err != nil {
		return nil, err
	}
	ps := &PreparedStmt{
		SQL:       sql,
		NumParams: nparams,
		p:         Parsed{Stmt: stmt, Fingerprint: fp, ParseNS: int64(d)},
		textHash:  sqlparse.HashText(sql),
	}
	if sel, ok := stmt.(*sqlparse.Select); ok {
		ps.cacheable = len(sel.From) > 0 && !selectHasSubqueries(sel)
	}
	return ps, nil
}

// ExecPrepared executes a prepared statement with the given parameter
// values, preserving the full ExecParsed flow (MVCC snapshot, tracing,
// fingerprinted statement stats) and consulting the plan cache for
// cacheable SELECTs.
func (s *Session) ExecPrepared(ps *PreparedStmt, args []sqlval.Value, opts ExecOptions) (*Result, error) {
	if len(args) != ps.NumParams {
		return nil, fmt.Errorf("prepared statement wants %d parameters, got %d", ps.NumParams, len(args))
	}
	ps.calls.Add(1)
	opts.Params = args
	opts.prep = ps
	return s.ExecParsed(ps.p, opts)
}

// Prepare parses a statement for repeated execution against this database.
func (db *DB) Prepare(sql string) (*PreparedStmt, error) { return PrepareStatement(sql) }

// planCacheEntry is the plan tree of the statement whose text is sql,
// pinned to the catalog epoch it was built under.
type planCacheEntry struct {
	sql   string
	tree  *plan.Tree
	epoch uint64
}

// planCacheMax bounds the cache. Entries are keyed by statement text, so a
// workload needs more distinct prepared statements than this to ever evict;
// on overflow an arbitrary entry is dropped (the evicted shape re-plans on
// its next execution).
const planCacheMax = 256

// bumpDDLEpoch invalidates every cached plan: entries pin the epoch they
// were built under and lookups discard mismatches.
func (db *DB) bumpDDLEpoch() { db.ddlEpoch.Add(1) }

// cachedPlan returns the cached plan tree for a prepared statement, planning
// and caching on miss or on a stale epoch.
func (db *DB) cachedPlan(ps *PreparedStmt, build func() *plan.Tree) *plan.Tree {
	key := ps.textHash
	epoch := db.ddlEpoch.Load()
	db.pcMu.Lock()
	e, ok := db.planCache[key]
	if ok && e.sql != ps.SQL {
		ok = false // a hash collision: the entry is another statement's
	}
	if ok && e.epoch != epoch {
		delete(db.planCache, key)
		ok = false
		mPlanCacheInvalidations.Inc()
	}
	db.pcMu.Unlock()
	if ok {
		mPlanCacheHits.Inc()
		ps.cacheHits.Add(1)
		return e.tree
	}
	mPlanCacheMisses.Inc()
	// Plan outside the cache lock: planning reads table stats and may be
	// slow relative to the map operations. If DDL lands mid-plan the entry
	// is stored under the pre-plan epoch and discarded on its next lookup —
	// exactly the guarantee per-execution planning gives today.
	tree := build()
	db.pcMu.Lock()
	if len(db.planCache) >= planCacheMax {
		for k := range db.planCache {
			delete(db.planCache, k)
			break
		}
	}
	db.planCache[key] = planCacheEntry{sql: ps.SQL, tree: tree, epoch: epoch}
	db.pcMu.Unlock()
	return tree
}

// selectPlan builds (or fetches) the plan tree for a SELECT: cached for
// cacheable prepared executions, planned from scratch otherwise.
func (ec *stmtCtx) selectPlan(s *sqlparse.Select) *plan.Tree {
	if ec.prep == nil || !ec.prep.cacheable {
		return plan.PlanSelect(stmtCatalog{ec}, s)
	}
	return ec.db.cachedPlan(ec.prep, func() *plan.Tree {
		return plan.PlanSelect(stmtCatalog{ec}, s)
	})
}
