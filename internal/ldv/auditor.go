package ldv

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"ldv/internal/client"
	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/prov"
	"ldv/internal/sqlval"
)

// Auditor is the LDV monitor (`ldv-audit`): it attaches to the simulated
// kernel as a tracer (the ptrace role, §VII-A) and to client connections as
// an interceptor (the instrumented-libpq role, §VII-C). While the
// application runs it keeps a log — every syscall event, and one record per
// statement — and does the one thing §VII-D asks of it per statement: work
// out which tuple versions are newly relevant and write them to disk at
// once. When monitoring stops, one fold of the log builds the combined
// execution trace, the interaction log for server-excluded packaging and the
// counters; from then on the auditor is immutable and its accessors take no
// lock.
type Auditor struct {
	mu sync.Mutex

	kernel *osim.Kernel
	trace  *prov.Trace

	// The log, in arrival order: syscall events and statement records, each
	// knowing how many events came before it.
	events  []osim.Event
	records []stmtRecord

	// tables is the in-memory duplicate-suppression table of §VII-D: per
	// table the application read from, the tuple versions that must ship in
	// a server-included package. tupleFlags, indexed by trace node, says
	// which tuple versions are already in it and which the application
	// created itself — those are excluded (§II).
	tables     map[string]*relevantTable // a table is added with its first relevant version
	tupleFlags []uint8
	relevantN  int
	duplicates int // reads of a version already relevant, suppressed

	// collectLineage (AuditOptions.CollectLineage) makes the audit
	// interceptor force Lineage computation on every statement.
	// Server-included packaging requires it; a server-excluded-only audit
	// runs without it, which is why that mode is cheaper in §IX-B.
	collectLineage bool

	// dbLog records every session's interactions in order for
	// server-excluded replay: a session's log is opened with it, and the
	// fold fills in its entries.
	dbLog []*SessionLog

	// Built by the fold: the files application processes read and wrote and
	// every file the server process touched (binaries, libraries, data
	// files), sorted, and the counters.
	appRead, appWritten, serverFiles []string
	stmtCount                        int
	tupleFetched                     int // provenance tuples transferred (audit-cost metric)
}

// stmtRecord is one audited statement as the log holds it: its SE-log
// entry, who ran it, what the engine says it was, when it ran, its lineage,
// and the trace nodes the §VII-D step interned for the versions it read
// (parallel to its version set, which lineage positions index) and wrote.
type stmtRecord struct {
	LogEntry
	log            *SessionLog // the session's
	pid            int
	events         int // syscall events logged before the statement's record
	kind           engine.StmtKind
	stmt           int64
	iv             prov.Interval
	lineage        [][]int32
	nodes, written []prov.Ref
}

const (
	flagRelevant   uint8 = 1 << iota // the version is in its relevantTable
	flagAppCreated                   // the application wrote the version
)

// relevantTable holds one table's relevant tuple versions. Each is recorded
// once, when it first becomes relevant — the "write accessed tuples to
// external storage" cost the paper charges to the first (cold-cache) query
// of an audited run (§IX-B); later queries hit the dedup flags and skip it.
// The record is the table file's live-row record of a preloaded version
// (engine.AppendLiveRecord's bytes): its header, then the values' image as
// the server sent it, never decoded on the way. The same bytes are the
// spool's and the package's row section.
type relevantTable struct {
	name    string
	rows    []relevantRow // in first-relevance order
	recs    []byte        // the rows' records, back to back
	spooled int           // prefix of recs already appended to the spool file
}

type relevantRow struct {
	row     engine.RowID
	version uint64
	vals    int // the values' image is recs[vals:end]
	end     int // the record is recs[previous row's end:end]
}

// add records version i of set at the end of the table.
func (t *relevantTable) add(set engine.VersionSet, i int) {
	ref := set.Refs()[i]
	t.recs = engine.AppendLiveHeader(t.recs, ref.Row, ref.Version)
	vals := len(t.recs)
	t.recs = set.AppendRow(t.recs, i)
	t.rows = append(t.rows, relevantRow{row: ref.Row, version: ref.Version, vals: vals, end: len(t.recs)})
}

// order returns the row indices in (row, version) order.
func (t *relevantTable) order() []int {
	idx := make([]int, len(t.rows))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(i, j int) int {
		a, b := &t.rows[i], &t.rows[j]
		if c := cmp.Compare(a.row, b.row); c != 0 {
			return c
		}
		return cmp.Compare(a.version, b.version)
	})
	return idx
}

// SpoolDir is where the auditor incrementally persists newly relevant
// tuples during monitoring — §VII-D: "immediately compute the provenance
// for every operation ... and write these tuples to files on disk", one
// <table>.rows file of table-file records per accessed table, appended to
// after every statement. The cold-cache first query of a workload pays for
// most of these writes; later queries hit the dedup table.
const SpoolDir = "/var/spool/ldv-audit"

// newAuditor creates an auditor and attaches it to the kernel.
func newAuditor(k *osim.Kernel, opts AuditOptions) *Auditor {
	a := &Auditor{
		kernel:         k,
		trace:          prov.NewTrace(prov.CombinedDefault()),
		tables:         map[string]*relevantTable{},
		collectLineage: opts.CollectLineage,
	}
	k.Trace(a)
	return a
}

// Trace returns the combined execution trace.
func (a *Auditor) Trace() *prov.Trace { return a.trace }

// StatementCount reports how many DB statements were audited.
func (a *Auditor) StatementCount() int { return a.stmtCount }

// ProvenanceTupleCount reports how many provenance tuples were transferred
// during auditing (before dedup) — the dominant audit cost in §IX-B.
func (a *Auditor) ProvenanceTupleCount() int { return a.tupleFetched }

// RelevantTupleCount reports the deduplicated relevant-tuple count.
func (a *Auditor) RelevantTupleCount() int { return a.relevantN }

// DuplicateTupleCount reports how many reads of an already relevant tuple
// version the duplicate-suppression table kept out of the package — what
// storage without it (§VII-D) would have stored on top of
// RelevantTupleCount.
func (a *Auditor) DuplicateTupleCount() int { return a.duplicates }

// OnEvent implements osim.Tracer: it logs the syscall event for the fold.
func (a *Auditor) OnEvent(ev osim.Event) {
	a.mu.Lock()
	a.events = append(a.events, ev)
	a.mu.Unlock()
}

// flags returns the dedup flags of tuple node r.
func (a *Auditor) flags(r prov.Ref) *uint8 {
	if n := a.trace.NodeCount(); len(a.tupleFlags) < n {
		a.tupleFlags = append(a.tupleFlags, make([]uint8, n-len(a.tupleFlags))...)
	}
	return &a.tupleFlags[r]
}

// Session returns the client interceptors that audit one connection opened
// by process p. Wire them into client.Options (ldv.Dial does this).
func (a *Auditor) Session(p *osim.Process) []client.Interceptor {
	log := &SessionLog{Proc: ProcNodeID(p.PID)}
	a.mu.Lock()
	a.dbLog = append(a.dbLog, log)
	a.mu.Unlock()
	return []client.Interceptor{&auditInterceptor{aud: a, pid: p.PID, log: log}}
}

// auditInterceptor audits one client session.
type auditInterceptor struct {
	client.BaseInterceptor
	aud *Auditor
	pid int
	log *SessionLog
}

// BeforeQuery forces lineage computation on every statement — the query
// modification the paper applies in the instrumented client library.
func (ic *auditInterceptor) BeforeQuery(info *client.QueryInfo) (*engine.Result, error) {
	if ic.aud.collectLineage {
		info.WithLineage = true
	}
	return nil, nil
}

// AfterQuery records the statement: the §VII-D step, then one append to the
// log. Everything else the audit learns from it, the fold works out.
func (ic *auditInterceptor) AfterQuery(info client.QueryInfo, res *engine.Result, err error) {
	// The log keeps the values as the client decoded them: the client hands
	// the interceptor a fresh Args slice and a fresh slice per row. The list
	// of rows is cloned, so an application that reorders or filters its
	// result in place does not rewrite what a replay will serve.
	rec := stmtRecord{LogEntry: LogEntry{SQL: info.SQL, Args: info.Args}, log: ic.log, pid: ic.pid}
	if err != nil {
		rec.Error = err.Error()
	} else {
		rec.TraceID, rec.Columns, rec.RowsAffected, rec.Rows = res.TraceID, res.Columns, res.RowsAffected, slices.Clone(res.Rows)
		rec.kind, rec.stmt, rec.lineage = res.Kind, res.StmtID, res.Lineage
		rec.iv = prov.Interval{Begin: res.Start, End: res.End}
	}
	a := ic.aud
	a.mu.Lock()
	defer a.mu.Unlock()
	if err == nil {
		a.relevance(&rec, res)
	}
	rec.events = len(a.events)
	a.records = append(a.records, rec)
}

// relevance is the §VII-D step. It interns the tuple nodes of the
// statement's version set — the trace's node index is the duplicate table —
// records each version that is relevant for the first time (read by the
// application, not created by it), spools what the statement added before
// the next one runs, and interns the versions the statement wrote, flagged
// as created by the application. Interning is timed as trace construction.
func (a *Auditor) relevance(rec *stmtRecord, res *engine.Result) {
	t0 := time.Now()
	tr := a.trace
	// The set is in table order, so a table name is interned once per run of
	// its versions.
	set := res.TupleValues
	read := set.Refs()
	rec.nodes = make([]prov.Ref, len(read))
	var key prov.Key
	for i, ref := range read {
		if i == 0 || ref.Table != read[i-1].Table {
			key = tr.TupleKey(ref.Table, 0, 0)
		}
		key.A, key.B = uint64(ref.Row), ref.Version
		rec.nodes[i], _ = tr.Intern(key, prov.TypeTuple)
	}

	d0 := time.Now()
	var rt *relevantTable
	for i, node := range rec.nodes {
		f := a.flags(node)
		switch {
		case *f&flagAppCreated != 0:
		case *f&flagRelevant != 0:
			a.duplicates++
			mTuplesDeduped.Inc()
		default:
			*f |= flagRelevant
			if rt == nil || rt.name != read[i].Table {
				if rt = a.tables[read[i].Table]; rt == nil {
					rt = &relevantTable{name: read[i].Table}
					a.tables[rt.name] = rt
				}
			}
			rt.add(set, i)
			a.relevantN++
			mTuplesStored.Inc()
		}
	}
	s0 := time.Now()
	a.spool()

	w0 := time.Now()
	rec.written = make([]prov.Ref, len(res.WrittenRefs))
	for i, ref := range res.WrittenRefs {
		rec.written[i], _ = tr.Intern(tr.TupleKey(ref.Table, uint64(ref.Row), ref.Version), prov.TypeTuple)
		*a.flags(rec.written[i]) |= flagAppCreated
	}
	hTraceNS.Observe(d0.Sub(t0) + time.Since(w0))
	hDedupNS.Observe(s0.Sub(d0))
	hSpoolNS.Observe(w0.Sub(s0))
}

// spool appends the records added since the last call to the per-table
// spool files in the simulated filesystem — the incremental disk write the
// paper charges to the first (cold-cache) query.
func (a *Auditor) spool() {
	for _, t := range a.tables {
		if t.spooled < len(t.recs) {
			_ = a.kernel.FS().AppendFile(SpoolDir+"/"+t.name+".rows", t.recs[t.spooled:])
			t.spooled = len(t.recs)
		}
	}
}

// RelevantTuples returns the relevant tuple versions grouped by table, each
// with its values — decoded from the recorded images — ordered by (row,
// version).
func (a *Auditor) RelevantTuples() map[string][]RelevantTuple {
	out := make(map[string][]RelevantTuple, len(a.tables))
	for name, t := range a.tables {
		rows := make([]RelevantTuple, 0, len(t.rows))
		for _, i := range t.order() {
			r := t.rows[i]
			// The image was checked on receipt, so it decodes.
			vals, _, _ := sqlval.DecodeRow(t.recs[r.vals:r.end])
			rows = append(rows, RelevantTuple{
				Ref:    engine.TupleRef{Table: name, Row: r.row, Version: r.version},
				Values: vals,
			})
		}
		out[name] = rows
	}
	return out
}

// tableFile seals the package's table file of one table: its relevant
// versions' records — the bytes encoded at first relevance — in (row,
// version) order.
func (a *Auditor) tableFile(name string, schema engine.Schema) []byte {
	var recs [][]byte
	if t := a.tables[name]; t != nil {
		recs = make([][]byte, 0, len(t.rows))
		for _, i := range t.order() {
			start := 0
			if i > 0 {
				start = t.rows[i-1].end
			}
			recs = append(recs, t.recs[start:t.rows[i].end])
		}
	}
	return engine.EncodeTableFile(name, schema, recs)
}

// RelevantTuple is one tuple version destined for a package's table file.
type RelevantTuple struct {
	Ref    engine.TupleRef
	Values []sqlval.Value
}

// AppFiles returns the paths read and written by application processes,
// sorted. The slices are the auditor's own.
func (a *Auditor) AppFiles() (read, written []string) { return a.appRead, a.appWritten }

// ServerFiles returns every path the DB server process touched, sorted. The
// slice is the auditor's own.
func (a *Auditor) ServerFiles() []string { return a.serverFiles }

// DBLog returns the recorded per-session interaction logs in session-open
// order.
func (a *Auditor) DBLog() []*SessionLog { return append([]*SessionLog(nil), a.dbLog...) }
