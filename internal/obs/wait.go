package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Wait events classify the places a session can block instead of running on
// CPU: table-lock acquisition, the WAL group-commit flush, the replica read
// gate, and the idle wait for the next client message. Each instrumented
// wait point is wrapped in a WaitBegin/end pair that (a) accumulates into
// the cumulative per-event counters behind ldv_stat_wait_events and the
// wait.* metrics, and (b) publishes the session's *current* wait through its
// SessionState so the ASH sampler can observe it. The cumulative side is
// always on (two atomic adds per wait); only the sampler has a kill switch.

// WaitEvent identifies one instrumented wait point.
type WaitEvent uint8

// The taxonomy. WaitNone is the on-CPU state, not a wait point — it carries
// no metrics and never reaches the cumulative stats.
const (
	WaitNone WaitEvent = iota
	// WaitLockTable: blocked acquiring a contended per-table lock. The fast
	// path (TryLock succeeds) is not a wait — only actual blocking counts,
	// as in PostgreSQL's lock wait events.
	WaitLockTable
	// WaitWALGroupCommit: a committing transaction waiting for the WAL
	// batch holding its record to flush.
	WaitWALGroupCommit
	// WaitReplApply: a replica read held by the read gate until the apply
	// loop reaches the client's read-your-writes bound.
	WaitReplApply
	// WaitClientRead: the session is idle, waiting for the next client
	// message.
	WaitClientRead

	numWaitEvents
)

// waitEventInfo carries each event's external name (dotted, rendered in
// views, logs, and /ash), its metric stem (underscored, rendered in the
// wait.* metric family), and its help text (rendered as # HELP on /metrics).
var waitEventInfo = [numWaitEvents]struct{ name, stem, help string }{
	WaitNone:           {"", "", ""},
	WaitLockTable:      {"lock.table", "lock_table", "Time statements spent blocked on contended table locks"},
	WaitWALGroupCommit: {"wal.group_commit", "wal_group_commit", "Time commits spent waiting for their WAL group-commit flush"},
	WaitReplApply:      {"repl.apply", "repl_apply", "Time replica reads spent waiting for the apply loop to reach their bound"},
	WaitClientRead:     {"client.read", "client_read", "Time sessions spent idle waiting for the next client message"},
}

// Name returns the event's dotted external name (e.g. "lock.table").
func (e WaitEvent) Name() string { return waitEventInfo[e].name }

// Description returns the event's help text, rendered as # HELP on /metrics
// and as the description column of ldv_stat_wait_events.
func (e WaitEvent) Description() string { return waitEventInfo[e].help }

// CountMetric returns the name of the event's cumulative wait counter.
func (e WaitEvent) CountMetric() string { return "wait." + waitEventInfo[e].stem + "_count" }

// NSMetric returns the name of the event's cumulative wait-time counter.
func (e WaitEvent) NSMetric() string { return "wait." + waitEventInfo[e].stem + "_ns" }

// WaitEvents lists every real wait event (WaitNone excluded), in taxonomy
// order — the iteration surface for views, /ash, and the wait lint.
func WaitEvents() []WaitEvent {
	evs := make([]WaitEvent, 0, numWaitEvents-1)
	for e := WaitEvent(1); e < numWaitEvents; e++ {
		evs = append(evs, e)
	}
	return evs
}

// Cumulative per-event accounting, registered as ordinary described metrics
// so they render on /metrics with # HELP lines and reset with the registry.
var (
	waitCounts [numWaitEvents]*Counter
	waitTimes  [numWaitEvents]*Counter
)

func init() {
	for _, e := range WaitEvents() {
		waitCounts[e] = NewCounter(e.CountMetric(), "Completed waits on "+e.Name())
		waitTimes[e] = NewCounter(e.NSMetric(), e.Description())
	}
}

// WaitEventStat is one row of the cumulative wait-event view.
type WaitEventStat struct {
	Event       WaitEvent
	Name        string
	Description string
	Count       int64
	TotalNS     int64
}

// WaitEventStats snapshots the cumulative per-event totals, in taxonomy
// order — the provider behind ldv_stat_wait_events and the /ash top-waits
// table.
func WaitEventStats() []WaitEventStat {
	out := make([]WaitEventStat, 0, numWaitEvents-1)
	for _, e := range WaitEvents() {
		out = append(out, WaitEventStat{
			Event:       e,
			Name:        e.Name(),
			Description: e.Description(),
			Count:       waitCounts[e].Load(),
			TotalNS:     waitTimes[e].Load(),
		})
	}
	return out
}

// StmtInfo identifies a statement to the introspection surfaces: the hex
// fingerprint key of ldv_stat_statements and the statement text. A prepared
// statement owns one, and every execution publishes a pointer to it, so
// publishing allocates nothing.
type StmtInfo struct {
	Fingerprint string
	SQL         string
}

// SessionState is one session's lock-free publication surface — the single
// live record of what the session is doing, read by the ASH sampler and by
// the server's ldv_stat_activity view alike. The connection goroutine writes
// its current statement, transaction, and wait state with plain atomic
// stores, and readers use atomic loads — no locks on either side, so
// publishing costs nanoseconds and a stalled session can never block a reader
// (or vice versa). Fields may be read torn across each other (a sample can
// pair the new wait event with the previous statement for one tick); both
// readers are statistical and tolerate that.
// All methods are nil-safe so engine paths without a registered session
// (library embedding, tests) pass nil and publish nothing.
type SessionState struct {
	id   int64
	proc string

	// event is the current WaitEvent (WaitNone = on CPU or idle);
	// waitStart is the wall clock (UnixNano) when that wait began.
	event     atomic.Int32
	waitStart atomic.Int64

	// stmt is the statement mid-execution (nil between statements), started
	// at stmtStart (UnixNano) under trace (nil when untraced).
	stmt      atomic.Pointer[StmtInfo]
	stmtStart atomic.Int64
	trace     atomic.Pointer[string]
	txn       atomic.Int64

	// Per-statement wait accumulation, reset by ResetStatementWaits at each
	// request boundary and summed by StatementWaits — the source of the
	// slow-query log's waits= field.
	stmtWaits  [numWaitEvents]atomic.Int64
	stmtWaitNS [numWaitEvents]atomic.Int64
}

// SessionID returns the session's server-assigned id.
func (st *SessionState) SessionID() int64 { return st.id }

// ResetStatementWaits zeroes the per-statement wait accumulators. The server
// calls it when a request arrives — before any of the request's waits (the
// replica read gate fires before statement execution even begins, so the
// reset cannot live in StartStatement).
func (st *SessionState) ResetStatementWaits() {
	if st == nil {
		return
	}
	for i := range st.stmtWaits {
		st.stmtWaits[i].Store(0)
		st.stmtWaitNS[i].Store(0)
	}
}

// StartStatement publishes a statement as executing since start.
func (st *SessionState) StartStatement(info *StmtInfo, traceID string, start time.Time) {
	if st == nil {
		return
	}
	if traceID != "" {
		id := traceID // a copy, so only traced statements pay the allocation
		st.trace.Store(&id)
	}
	st.stmtStart.Store(start.UnixNano())
	st.stmt.Store(info)
}

// FinishStatement returns the session to its between-statements state. The
// per-statement wait accumulators keep their totals until the next request's
// ResetStatementWaits so the caller can still read StatementWaits.
func (st *SessionState) FinishStatement() {
	if st == nil {
		return
	}
	st.stmt.Store(nil)
	st.trace.Store(nil)
}

// Activity reports what the session is doing now: the statement it is
// executing (nil between statements), for how long, and its open transaction
// id (0 = none) — the ldv_stat_activity row, from the record ASH samples.
func (st *SessionState) Activity(now time.Time) (stmt *StmtInfo, elapsed time.Duration, txn int64) {
	if st == nil {
		return nil, 0, 0
	}
	if stmt = st.stmt.Load(); stmt != nil {
		elapsed = time.Duration(now.UnixNano() - st.stmtStart.Load())
	}
	return stmt, elapsed, st.txn.Load()
}

// SetTxn publishes the session's open transaction id (0 = none).
func (st *SessionState) SetTxn(id int64) {
	if st == nil {
		return
	}
	st.txn.Store(id)
}

// StatementWaits reports the most recent statement's dominant wait event
// (by accumulated time) and its total time across all events. A zero total
// means the statement never blocked.
func (st *SessionState) StatementWaits() (dominant WaitEvent, dominantNS, totalNS int64) {
	if st == nil {
		return WaitNone, 0, 0
	}
	for _, e := range WaitEvents() {
		ns := st.stmtWaitNS[e].Load()
		totalNS += ns
		if ns > dominantNS {
			dominant, dominantNS = e, ns
		}
	}
	return dominant, dominantNS, totalNS
}

// WaitBegin opens one wait section on a session and returns its end
// function. Callers must `defer end()` (or call it on every path) — the
// repo-root wait lint enforces the deferred form. The end function folds the
// wait's duration into the cumulative per-event counters and the session's
// per-statement accumulators, and returns the session to the on-CPU state.
// st may be nil (cumulative accounting only).
func WaitBegin(st *SessionState, ev WaitEvent) func() {
	t0 := time.Now()
	if st != nil {
		st.waitStart.Store(t0.UnixNano())
		st.event.Store(int32(ev))
	}
	return func() {
		d := int64(time.Since(t0))
		waitCounts[ev].Inc()
		waitTimes[ev].Add(d)
		if st != nil {
			st.event.Store(int32(WaitNone))
			st.stmtWaits[ev].Add(1)
			st.stmtWaitNS[ev].Add(d)
		}
	}
}

// The session set: every live connection registers here so the ASH sampler
// can enumerate sessions. Registration is per-connection (not per-statement),
// so a mutex-guarded map is fine — the hot path never touches it.
var (
	sessMu   sync.RWMutex
	sessions = map[int64]*SessionState{}
)

// RegisterSession adds a session to the sampled set and returns its state
// handle. The first registration starts the ASH sampler goroutine.
func RegisterSession(id int64, proc string) *SessionState {
	st := &SessionState{id: id, proc: proc}
	sessMu.Lock()
	sessions[id] = st
	sessMu.Unlock()
	defaultASH.start()
	return st
}

// UnregisterSession removes a closed session from the sampled set.
func UnregisterSession(id int64) {
	sessMu.Lock()
	delete(sessions, id)
	sessMu.Unlock()
}

// liveSessions snapshots the registered session handles.
func liveSessions() []*SessionState {
	sessMu.RLock()
	out := make([]*SessionState, 0, len(sessions))
	for _, st := range sessions {
		out = append(out, st)
	}
	sessMu.RUnlock()
	return out
}
