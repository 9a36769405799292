package engine

import (
	"sync/atomic"
	"time"

	"ldv/internal/obs"
	"ldv/internal/plan"
	"ldv/internal/sqlparse"
)

// Every statement executes as a *PreparedStmt: a text statement is prepared,
// executed once and dropped; a named one parses once and executes many times
// with positional `?` parameters. The AST is immutable after the parse (plan
// trees never alias executor state: what an execution computes, bound
// parameters and subquery results alike, lives in its value table), so one
// *PreparedStmt is safe to share across sessions — the server
// keeps a per-connection name registry, but the underlying statement and its
// cached plan are process-wide.
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

// PreparedStmt is the one executable form of a statement: everything
// Session.ExecPrepared needs that depends on the text alone, worked out once
// by PrepareStatement. Immutable after that except for the counters.
type PreparedStmt struct {
	// SQL is the original statement text.
	SQL string
	// NumParams is the number of positional `?` placeholders an execution
	// must supply values for.
	NumParams int

	stmt sqlparse.Statement
	fp   sqlparse.Fingerprint
	// info is what a session publishes while it runs the statement: the
	// fingerprint's hex key, rendered here once, and the text.
	info    obs.StmtInfo
	parseNS int64
	// latency is the histogram of the statement's kind; writes marks the
	// kinds a read-only database refuses.
	latency *obs.Histogram
	writes  bool
	// cacheable marks statements whose plan tree the plan cache may keep,
	// keyed by textHash: SELECTs over tables prepared through DB.Prepare.
	cacheable bool
	textHash  uint64

	calls     atomic.Int64
	cacheHits atomic.Int64
}

// Statement returns the parsed statement (shared, not to be modified).
func (ps *PreparedStmt) Statement() sqlparse.Statement { return ps.stmt }

// Info returns the statement's fingerprint key — the 16-digit hex join key
// against ldv_stat_statements — and text, as sessions publish them.
func (ps *PreparedStmt) Info() *obs.StmtInfo { return &ps.info }

// Calls returns how many times the statement has been executed.
func (ps *PreparedStmt) Calls() int64 { return ps.calls.Load() }

// CacheHits returns how many executions reused a cached plan tree.
func (ps *PreparedStmt) CacheHits() int64 { return ps.cacheHits.Load() }

// PrepareStatement parses and fingerprints one statement in a single lex
// pass, recording engine.parse_ns — the one parse entry point. The result
// plans afresh on every execution, which is what a text statement wants: its
// plan embeds its literals, so caching it under its exact text would fill the
// bounded cache with entries that are never asked for again.
func PrepareStatement(sql string) (*PreparedStmt, error) {
	t0 := time.Now()
	stmt, fp, nparams, err := sqlparse.ParsePrepared(sql)
	d := time.Since(t0)
	hParse.Observe(d)
	if err != nil {
		return nil, err
	}
	return newPrepared(stmt, fp, nparams, sql, int64(d)), nil
}

// newPrepared builds the executable form of an already parsed statement.
func newPrepared(stmt sqlparse.Statement, fp sqlparse.Fingerprint, nparams int, sql string, parseNS int64) *PreparedStmt {
	return &PreparedStmt{
		SQL:       sql,
		NumParams: nparams,
		stmt:      stmt,
		fp:        fp,
		info:      obs.StmtInfo{Fingerprint: fp.String(), SQL: sql},
		parseNS:   parseNS,
		latency:   execHistogram(stmt),
		writes:    stmtWrites(stmt),
	}
}

// Prepare parses a statement for repeated execution against this database:
// PrepareStatement, plus a place in the plan cache for a SELECT's plan tree.
func (db *DB) Prepare(sql string) (*PreparedStmt, error) {
	ps, err := PrepareStatement(sql)
	if err != nil {
		return nil, err
	}
	if sel, ok := ps.stmt.(*sqlparse.Select); ok {
		ps.cacheable = len(sel.From) > 0
		ps.textHash = sqlparse.HashText(sql)
	}
	return ps, nil
}

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

// planTree is where a statement gets its plan, for execution and for EXPLAIN
// alike: the planner's one entry, behind the plan cache for a cacheable
// prepared statement (ps may be nil). cat is the caller's view of the
// catalog — a statement's locked footprint, or the whole catalog for plain
// EXPLAIN, which locks nothing.
func (db *DB) planTree(cat plan.Catalog, ps *PreparedStmt, stmt sqlparse.Statement) *plan.Tree {
	if ps == nil || !ps.cacheable {
		return plan.PlanStatement(cat, stmt)
	}
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
	tree := plan.PlanStatement(cat, stmt)
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
