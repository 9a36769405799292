package ldv

import (
	"cmp"
	"slices"
	"sort"
	"strings"
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
// an interceptor (the instrumented-libpq role, §VII-C), incrementally
// building the combined execution trace, the relevant-tuple set for
// server-included packaging, and the interaction log for server-excluded
// packaging.
type Auditor struct {
	mu sync.Mutex

	kernel *osim.Kernel
	trace  *prov.Trace

	// open interactions: open times per (pid, path, write) awaiting close.
	opens map[openKey][]uint64

	serverPIDs     map[int]bool
	serverBinaries map[string]bool
	appPIDs        map[int]bool

	// filesRead/filesWritten index app-process file accesses; serverFiles
	// collects every file the server process touched (binaries, libraries,
	// data files).
	filesRead    map[string]bool
	filesWritten map[string]bool
	serverFiles  map[string]bool

	// tables is the in-memory duplicate-suppression table of §VII-D: per
	// table the application read from, the tuple versions that must ship in
	// a server-included package. tupleFlags, indexed by trace node, says
	// which tuple versions are already in it and which the application
	// created itself — those are excluded (§II).
	tables     map[string]*relevantTable
	tupleFlags []uint8
	relevantN  int
	duplicates int // reads of a version already relevant, suppressed

	// collectLineage (AuditOptions.CollectLineage) makes the audit
	// interceptor force Lineage computation on every statement.
	// Server-included packaging requires it; a server-excluded-only audit
	// runs without it, which is why that mode is cheaper in §IX-B.
	collectLineage bool

	// dbLog records every session's interactions in order for
	// server-excluded replay.
	dbLog        []*SessionLog
	stmtCount    int
	tupleFetched int // provenance tuples transferred (audit-cost metric)
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

type openKey struct {
	pid   int
	path  string
	write bool
}

// SpoolDir is where the auditor incrementally persists newly relevant
// tuples during monitoring — §VII-D: "immediately compute the provenance
// for every operation ... and write these tuples to files on disk", one
// <table>.rows file of table-file records per accessed table, appended to
// after every statement. The cold-cache first query of a workload pays for
// most of these writes; later queries hit the dedup table.
const SpoolDir = "/var/spool/ldv-audit"

// NewAuditor creates an auditor and attaches it to the kernel. Call Detach
// when monitoring ends.
func NewAuditor(k *osim.Kernel, opts AuditOptions) *Auditor {
	a := &Auditor{
		kernel:         k,
		trace:          prov.NewTrace(prov.CombinedDefault()),
		opens:          map[openKey][]uint64{},
		serverPIDs:     map[int]bool{},
		serverBinaries: map[string]bool{},
		appPIDs:        map[int]bool{},
		filesRead:      map[string]bool{},
		filesWritten:   map[string]bool{},
		serverFiles:    map[string]bool{},
		tables:         map[string]*relevantTable{},
		collectLineage: opts.CollectLineage,
	}
	k.Trace(a)
	return a
}

// Detach stops monitoring.
func (a *Auditor) Detach() { a.kernel.Detach(a) }

// MarkServerBinary declares every process spawned from the given binary to
// be a server process (processes are classified at spawn time, before they
// issue any syscalls).
func (a *Auditor) MarkServerBinary(path string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.serverBinaries[path] = true
}

// Trace returns the combined execution trace built so far.
func (a *Auditor) Trace() *prov.Trace { return a.trace }

// StatementCount reports how many DB statements were audited.
func (a *Auditor) StatementCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stmtCount
}

// ProvenanceTupleCount reports how many provenance tuples were transferred
// during auditing (before dedup) — the dominant audit cost in §IX-B.
func (a *Auditor) ProvenanceTupleCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tupleFetched
}

// RelevantTupleCount reports the deduplicated relevant-tuple count.
func (a *Auditor) RelevantTupleCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.relevantN
}

// DuplicateTupleCount reports how many reads of an already relevant tuple
// version the duplicate-suppression table kept out of the package — what
// storage without it (§VII-D) would have stored on top of
// RelevantTupleCount.
func (a *Auditor) DuplicateTupleCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.duplicates
}

// OnEvent implements osim.Tracer, translating syscall events into PBB trace
// structure (§VII-A): spawn becomes an executed edge, an open/close pair
// becomes a readFrom or hasWritten edge annotated with the interval between
// first open and close.
func (a *Auditor) OnEvent(ev osim.Event) {
	countEvent(ev.Kind)
	a.mu.Lock()
	defer a.mu.Unlock()
	switch ev.Kind {
	case osim.EvSpawn:
		if a.serverBinaries[ev.Path] {
			a.serverPIDs[ev.PID] = true
			return
		}
		if a.serverPIDs[ev.PID] {
			return
		}
		a.appPIDs[ev.PID] = true
		child := a.ensureProc(ev.PID)
		a.trace.SetAttr(child, prov.AttrBinary, ev.Path)
		parent := a.ensureProc(ev.PPID) // the root harness process counts too
		_, _ = a.trace.Link(parent, child, prov.EdgeExecuted, prov.Point(ev.Time), 0)
	case osim.EvOpen:
		key := openKey{pid: ev.PID, path: ev.Path, write: ev.Write}
		a.opens[key] = append(a.opens[key], ev.Time)
	case osim.EvClose:
		key := openKey{pid: ev.PID, path: ev.Path, write: ev.Write}
		stack := a.opens[key]
		if len(stack) == 0 {
			return // close without tracked open (tracer attached mid-flight)
		}
		openT := stack[0]
		if len(stack) == 1 {
			delete(a.opens, key)
		} else {
			a.opens[key] = stack[1:]
		}
		if a.serverPIDs[ev.PID] {
			a.serverFiles[ev.Path] = true
			return
		}
		proc := a.ensureProc(ev.PID)
		file, _ := a.trace.Intern(a.trace.FileKey(ev.Path), prov.TypeFile)
		iv := prov.Interval{Begin: openT, End: ev.Time}
		if ev.Write {
			a.filesWritten[ev.Path] = true
			_, _ = a.trace.Link(proc, file, prov.EdgeHasWritten, iv, 0)
		} else {
			a.filesRead[ev.Path] = true
			_, _ = a.trace.Link(file, proc, prov.EdgeReadFrom, iv, 0)
		}
	case osim.EvConnect, osim.EvExit:
		// Connects surface in the trace through run edges when statements
		// execute; exits need no trace structure.
	}
}

// The node types below are all part of the combined model, so Intern cannot
// fail on them.

func (a *Auditor) ensureProc(pid int) prov.Ref {
	r, _ := a.trace.Intern(prov.ProcKey(pid), prov.TypeProcess)
	return r
}

// table returns the relevant-tuple table for name, creating it on first use.
func (a *Auditor) table(name string) *relevantTable {
	t := a.tables[name]
	if t == nil {
		t = &relevantTable{name: name}
		a.tables[name] = t
	}
	return t
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

// AfterQuery folds the statement's provenance into the trace, the
// relevant-tuple table, and the replay log.
func (ic *auditInterceptor) AfterQuery(info client.QueryInfo, res *engine.Result, err error) {
	ic.aud.recordStatement(ic.pid, ic.log, info, res, err)
}

// statementType classifies SQL text into a PLin activity type from its
// leading keyword; COPY is a bulk load (an insert: it produces tuples) or an
// export (a query) depending on the direction keyword after the table name.
func statementType(sql string) string {
	word, rest := nextWord(sql)
	switch {
	case strings.EqualFold(word, "INSERT"):
		return prov.TypeInsert
	case strings.EqualFold(word, "UPDATE"):
		return prov.TypeUpdate
	case strings.EqualFold(word, "DELETE"):
		return prov.TypeDelete
	case strings.EqualFold(word, "COPY"):
		_, rest = nextWord(rest) // the table
		if dir, _ := nextWord(rest); strings.EqualFold(dir, "FROM") {
			return prov.TypeInsert
		}
	}
	return prov.TypeQuery
}

// nextWord splits off the first whitespace-delimited word of s.
func nextWord(s string) (word, rest string) {
	s = strings.TrimLeft(s, " \t\r\n")
	if i := strings.IndexAny(s, " \t\r\n"); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

func (a *Auditor) recordStatement(pid int, log *SessionLog, info client.QueryInfo, res *engine.Result, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	// Partition this call's cost for the overhead report: everything is
	// trace construction except the dedup-table and spool intervals, which
	// are timed separately and subtracted.
	t0 := time.Now()
	var dedupDur, spoolDur time.Duration
	defer func() {
		total := time.Since(t0)
		hTraceNS.Observe(total - dedupDur)
		hDedupNS.Observe(dedupDur - spoolDur)
		hSpoolNS.Observe(spoolDur)
	}()

	// The log keeps the values as the client decoded them: the client hands
	// the interceptor a fresh Args slice and a fresh slice per row. The list
	// of rows is cloned, so an application that reorders or filters its
	// result in place does not rewrite what a replay will serve.
	entry := LogEntry{SQL: info.SQL, Args: info.Args}
	if err != nil {
		entry.Error = err.Error()
		log.Entries = append(log.Entries, entry)
		mAudLogEntries.Inc()
		return
	}
	entry.TraceID = res.TraceID
	entry.Columns = res.Columns
	entry.RowsAffected = res.RowsAffected
	entry.Rows = slices.Clone(res.Rows)
	log.Entries = append(log.Entries, entry)
	mAudLogEntries.Inc()
	a.stmtCount++
	mAudStmts.Inc()

	tr := a.trace
	stype := statementType(info.SQL)
	stmt, aerr := tr.Intern(prov.StmtKey(res.StmtID), stype)
	if aerr != nil {
		return
	}
	tr.SetAttr(stmt, prov.AttrSQL, info.SQL)
	if len(info.Args) > 0 {
		// What tells two executions of one prepared statement apart when
		// people read the trace (ldv-trace, DOT, PROV-JSON).
		tr.SetAttr(stmt, prov.AttrLabel, describeStatement(info.SQL, info.Args))
	}
	tr.SetAttr(stmt, prov.AttrTrace, res.TraceID)
	traceID := tr.InternString(res.TraceID)
	proc := a.ensureProc(pid)
	iv := prov.Interval{Begin: res.Start, End: res.End}
	_, _ = tr.Link(proc, stmt, prov.EdgeRun, iv, traceID)

	// hasRead edges, one run: every tuple version in some result row's
	// lineage or in the DML read set — which is exactly the version set the
	// result carries the values of. The set is in table order, so a table
	// name is interned once per run of its versions; nodes is parallel to
	// the set, which is what lineage positions index.
	set := res.TupleValues
	read := set.Refs()
	nodes := make([]prov.Ref, len(read))
	var key prov.Key
	for i, ref := range read {
		if i == 0 || ref.Table != read[i-1].Table {
			key = tr.TupleKey(ref.Table, 0, 0)
		}
		key.A, key.B = uint64(ref.Row), ref.Version
		nodes[i], _ = tr.Intern(key, prov.TypeTuple)
	}
	_ = tr.LinkRun(stmt, nodes, false, prov.EdgeHasRead, iv, traceID)
	a.tupleFetched += len(read)
	mTuplesFetched.Add(int64(len(read)))

	// Relevant-tuple rule (§VII-D): read by the application and not created
	// by it. A version is recorded the first time it is relevant, and what
	// this statement added is spooled before the next one runs.
	d0 := time.Now()
	var rt *relevantTable
	for i, node := range nodes {
		f := a.flags(node)
		switch {
		case *f&flagAppCreated != 0:
		case *f&flagRelevant != 0:
			a.duplicates++
			mTuplesDeduped.Inc()
		default:
			*f |= flagRelevant
			if rt == nil || rt.name != read[i].Table {
				rt = a.table(read[i].Table)
			}
			rt.add(set, i)
			a.relevantN++
			mTuplesStored.Inc()
		}
	}
	s0 := time.Now()
	a.spool()
	spoolDur = time.Since(s0)
	dedupDur = time.Since(d0)

	// hasReturned edges for stored tuples produced by DML, one run, plus
	// version dependencies (an updated version depends on its predecessor).
	written := make([]prov.Ref, len(res.WrittenRefs))
	for i, ref := range res.WrittenRefs {
		written[i], _ = tr.Intern(tr.TupleKey(ref.Table, uint64(ref.Row), ref.Version), prov.TypeTuple)
		*a.flags(written[i]) |= flagAppCreated
	}
	_ = tr.LinkRun(stmt, written, true, prov.EdgeHasReturned, iv, traceID)
	switch stype {
	case prov.TypeUpdate:
		// Reenactment pairing: old and new version share the row id.
		byRow := make(map[engine.RowID]int, len(written))
		for i, ref := range res.WrittenRefs {
			byRow[ref.Row] = i
		}
		for i, old := range read {
			if w, ok := byRow[old.Row]; ok && old.Table == res.WrittenRefs[w].Table {
				_ = tr.LinkDep(nodes[i], written[w])
			}
		}
	case prov.TypeInsert:
		// INSERT ... SELECT: conservatively, every written tuple depends on
		// every read tuple (per-row lineage is not tracked across the copy).
		for _, src := range nodes {
			for _, nw := range written {
				_ = tr.LinkDep(src, nw)
			}
		}
	}

	// Result tuples of queries: returned by the statement and read by the
	// process (readFrom), a run each, and dependent on their lineage
	// (Definition 7) — positions in the version set, so nodes[pos].
	if stype == prov.TypeQuery {
		results := make([]prov.Ref, len(res.Rows))
		for i := range results {
			results[i], _ = tr.Intern(prov.ResultKey(res.StmtID, i), prov.TypeTuple)
			if i < len(res.Lineage) {
				for _, pos := range res.Lineage[i] {
					_ = tr.LinkDep(nodes[pos], results[i])
				}
			}
		}
		_ = tr.LinkRun(stmt, results, true, prov.EdgeHasReturned, iv, traceID)
		_ = tr.LinkRun(proc, results, false, prov.EdgeReadFrom, iv, traceID)
	}
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
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string][]RelevantTuple, len(a.tables))
	for name, t := range a.tables {
		if len(t.rows) == 0 {
			continue
		}
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

// relevantTableNames lists the tables with relevant tuples, sorted.
func (a *Auditor) relevantTableNames() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	var names []string
	for name, t := range a.tables {
		if len(t.rows) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// tableFile seals the package's table file of one table: its relevant
// versions' records — the bytes encoded at first relevance — in (row,
// version) order.
func (a *Auditor) tableFile(name string, schema engine.Schema) []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
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

// AppFiles returns the paths read and written by application processes.
func (a *Auditor) AppFiles() (read, written []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for p := range a.filesRead {
		read = append(read, p)
	}
	for p := range a.filesWritten {
		written = append(written, p)
	}
	sort.Strings(read)
	sort.Strings(written)
	return read, written
}

// ServerFiles returns every path the DB server process touched.
func (a *Auditor) ServerFiles() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.serverFiles))
	for p := range a.serverFiles {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// DBLog returns the recorded per-session interaction logs in session-open
// order.
func (a *Auditor) DBLog() []*SessionLog {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*SessionLog(nil), a.dbLog...)
}
