package ldv

import (
	"fmt"
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

	// relevant is the in-memory duplicate-suppression hash table of §VII-D:
	// tuple versions that must ship in a server-included package, with their
	// values. appCreated tracks versions produced by the application itself,
	// which are excluded (§II).
	relevant   map[engine.TupleRef]relevantEntry
	appCreated map[engine.TupleRef]bool
	// DedupDisabled turns the duplicate-suppression table into append-only
	// storage (ablation: quantifies §VII-D's dedup hash table).
	DedupDisabled bool
	relevantList  []taggedTuple // used only when DedupDisabled

	// CollectLineage controls whether the audit interceptor forces Lineage
	// computation on every statement. Server-included packaging requires it;
	// a server-excluded-only audit runs without it, which is why that mode
	// is cheaper in §IX-B.
	CollectLineage bool

	// dbLog records every session's interactions in order for
	// server-excluded replay.
	dbLog        []*SessionLog
	stmtCount    int
	tupleFetched int // provenance tuples transferred (audit-cost metric)
}

type taggedTuple struct {
	ref   engine.TupleRef
	entry relevantEntry
}

// relevantEntry is one persisted tuple version. Cells are encoded eagerly
// when the tuple first becomes relevant — the "write accessed tuples to
// external storage" cost the paper charges to the first (cold-cache) query
// of an audited run (§IX-B); later queries hit the dedup table and skip it.
type relevantEntry struct {
	vals  []sqlval.Value
	cells []string
}

type openKey struct {
	pid   int
	path  string
	write bool
}

// SpoolDir is where the auditor incrementally persists newly relevant
// tuples during monitoring — §VII-D: "immediately compute the provenance
// for every operation ... and write these tuples to files on disk", one
// CSV per accessed table. The cold-cache first query of a workload pays
// for most of these writes; later queries hit the dedup table.
const SpoolDir = "/var/spool/ldv-audit"

// NewAuditor creates an auditor and attaches it to the kernel. Call Detach
// when monitoring ends.
func NewAuditor(k *osim.Kernel) *Auditor {
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
		relevant:       map[engine.TupleRef]relevantEntry{},
		appCreated:     map[engine.TupleRef]bool{},
		CollectLineage: true,
	}
	k.Trace(a)
	return a
}

// Detach stops monitoring.
func (a *Auditor) Detach() { a.kernel.Detach(a) }

// MarkServer declares pid to be (part of) the DB server rather than the
// application. Server file accesses are collected separately and excluded
// from the application's PBB trace.
func (a *Auditor) MarkServer(pid int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.serverPIDs[pid] = true
}

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
	if a.DedupDisabled {
		return len(a.relevantList)
	}
	return len(a.relevant)
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
		if n := a.trace.Node(child); n != nil {
			n.Attrs["binary"] = ev.Path
		}
		parent := a.ensureProc(ev.PPID) // the root harness process counts too
		_, _ = a.trace.AddEdge(parent, child, prov.EdgeExecuted, prov.Point(ev.Time))
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
		a.opens[key] = stack[1:]
		if a.serverPIDs[ev.PID] {
			a.serverFiles[ev.Path] = true
			return
		}
		procID := a.ensureProc(ev.PID)
		fileID := a.ensureFile(ev.Path)
		iv := prov.Interval{Begin: openT, End: ev.Time}
		if ev.Write {
			a.filesWritten[ev.Path] = true
			_, _ = a.trace.AddEdge(procID, fileID, prov.EdgeHasWritten, iv)
		} else {
			a.filesRead[ev.Path] = true
			_, _ = a.trace.AddEdge(fileID, procID, prov.EdgeReadFrom, iv)
		}
	case osim.EvConnect, osim.EvExit:
		// Connects surface in the trace through run edges when statements
		// execute; exits need no trace structure.
	}
}

func (a *Auditor) ensureProc(pid int) string {
	id := ProcNodeID(pid)
	_, _ = a.trace.AddNode(id, prov.TypeProcess, fmt.Sprintf("process %d", pid))
	return id
}

func (a *Auditor) ensureFile(path string) string {
	id := FileNodeID(path)
	n, _ := a.trace.AddNode(id, prov.TypeFile, path)
	if n != nil {
		n.Attrs["path"] = path
	}
	return id
}

func (a *Auditor) ensureTuple(ref engine.TupleRef) string {
	id := TupleNodeID(ref)
	_, _ = a.trace.AddNode(id, prov.TypeTuple, ref.String())
	return id
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
	if ic.aud.CollectLineage {
		info.WithLineage = true
	}
	return nil, nil
}

// AfterQuery folds the statement's provenance into the trace, the
// relevant-tuple table, and the replay log.
func (ic *auditInterceptor) AfterQuery(info client.QueryInfo, res *engine.Result, err error) {
	ic.aud.recordStatement(ic.pid, ic.log, info, res, err)
}

// statementType classifies SQL text into a PLin activity type.
func statementType(sql string) string {
	head := strings.ToUpper(strings.TrimSpace(sql))
	switch {
	case strings.HasPrefix(head, "INSERT"):
		return prov.TypeInsert
	case strings.HasPrefix(head, "UPDATE"):
		return prov.TypeUpdate
	case strings.HasPrefix(head, "DELETE"):
		return prov.TypeDelete
	case strings.HasPrefix(head, "COPY") && !strings.Contains(head, " TO "):
		return prov.TypeInsert // bulk load produces tuples
	default:
		return prov.TypeQuery
	}
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

	entry := LogEntry{SQL: info.SQL}
	if err != nil {
		entry.Error = err.Error()
		log.Entries = append(log.Entries, entry)
		mAudLogEntries.Inc()
		return
	}
	entry.TraceID = res.TraceID
	entry.Columns = res.Columns
	entry.RowsAffected = res.RowsAffected
	for _, row := range res.Rows {
		entry.Rows = append(entry.Rows, encodeRowCells(row))
	}
	log.Entries = append(log.Entries, entry)
	mAudLogEntries.Inc()
	a.stmtCount++
	mAudStmts.Inc()

	stype := statementType(info.SQL)
	stmtNode := StmtNodeID(res.StmtID)
	n, aerr := a.trace.AddNode(stmtNode, stype, info.SQL)
	if aerr != nil {
		return
	}
	n.Attrs["sql"] = info.SQL
	if res.TraceID != "" {
		n.Attrs["trace"] = res.TraceID
	}
	procNode := a.ensureProc(pid)
	iv := prov.Interval{Begin: res.Start, End: res.End}
	_, _ = a.trace.AddEdgeTraced(procNode, stmtNode, prov.EdgeRun, iv, res.TraceID)

	// hasRead edges: every tuple version in some result row's lineage or in
	// the DML read set — which is exactly the version set the result
	// carries the values of.
	read, values := res.TupleValues.Refs(), res.TupleValues.Values()
	for i, ref := range read {
		tupleNode := a.ensureTuple(ref)
		_, _ = a.trace.AddEdgeTraced(tupleNode, stmtNode, prov.EdgeHasRead, iv, res.TraceID)
		a.tupleFetched++
		mTuplesFetched.Inc()
		// Relevant-tuple rule (§VII-D): read by the application and not
		// created by it.
		if vals := values[i]; !a.appCreated[ref] {
			d0 := time.Now()
			if a.DedupDisabled {
				entry := relevantEntry{vals: vals, cells: encodeRowCells(vals)}
				a.relevantList = append(a.relevantList, taggedTuple{ref: ref, entry: entry})
				mTuplesStored.Inc()
			} else if _, dup := a.relevant[ref]; !dup {
				entry := relevantEntry{vals: vals, cells: encodeRowCells(vals)}
				a.relevant[ref] = entry
				mTuplesStored.Inc()
				s0 := time.Now()
				a.spool(ref, entry)
				spoolDur += time.Since(s0)
			} else {
				mTuplesDeduped.Inc()
			}
			dedupDur += time.Since(d0)
		}
	}

	// hasReturned edges for stored tuples produced by DML, plus version
	// dependencies (an updated version depends on its predecessor).
	writtenByRow := map[engine.RowID]engine.TupleRef{}
	for _, ref := range res.WrittenRefs {
		tupleNode := a.ensureTuple(ref)
		_, _ = a.trace.AddEdgeTraced(stmtNode, tupleNode, prov.EdgeHasReturned, iv, res.TraceID)
		a.appCreated[ref] = true
		writtenByRow[ref.Row] = ref
	}
	switch stype {
	case prov.TypeUpdate:
		// Reenactment pairing: old and new version share the row id.
		for _, old := range res.ReadRefs {
			if nw, ok := writtenByRow[old.Row]; ok && old.Table == nw.Table {
				_ = a.trace.AddDep(TupleNodeID(old), TupleNodeID(nw))
			}
		}
	case prov.TypeInsert:
		// INSERT ... SELECT: conservatively, every written tuple depends on
		// every read tuple (per-row lineage is not tracked across the copy).
		for _, old := range res.ReadRefs {
			for _, nw := range res.WrittenRefs {
				_ = a.trace.AddDep(TupleNodeID(old), TupleNodeID(nw))
			}
		}
	}

	// Result tuples of queries: returned by the statement, read by the
	// process (the cross-model readFrom edge), and dependent on their
	// lineage (Definition 7).
	if stype == prov.TypeQuery {
		for i := range res.Rows {
			rnode := ResultTupleNodeID(res.StmtID, i)
			_, _ = a.trace.AddNode(rnode, prov.TypeTuple, rnode)
			_, _ = a.trace.AddEdgeTraced(stmtNode, rnode, prov.EdgeHasReturned, iv, res.TraceID)
			_, _ = a.trace.AddEdgeTraced(rnode, procNode, prov.EdgeReadFrom, iv, res.TraceID)
			if res.Lineage != nil {
				for _, ref := range res.Lineage[i] {
					_ = a.trace.AddDep(TupleNodeID(ref), rnode)
				}
			}
		}
	}
}

// spool appends one newly relevant tuple to the per-table CSV spool file in
// the simulated filesystem — the incremental disk write the paper charges
// to the first (cold-cache) query.
func (a *Auditor) spool(ref engine.TupleRef, e relevantEntry) {
	line := fmt.Sprintf("%d,%d,%s\n", ref.Row, ref.Version, strings.Join(e.cells, ","))
	_ = a.kernel.FS().AppendFile(SpoolDir+"/"+ref.Table+".csv", []byte(line))
}

// RelevantTuples returns the deduplicated relevant tuple versions grouped
// by table, each with its values, sorted for determinism.
func (a *Auditor) RelevantTuples() map[string][]RelevantTuple {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := map[string][]RelevantTuple{}
	add := func(ref engine.TupleRef, e relevantEntry) {
		out[ref.Table] = append(out[ref.Table], RelevantTuple{Ref: ref, Values: e.vals, Cells: e.cells})
	}
	if a.DedupDisabled {
		for _, t := range a.relevantList {
			add(t.ref, t.entry)
		}
	} else {
		for ref, e := range a.relevant {
			add(ref, e)
		}
	}
	for table := range out {
		rows := out[table]
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].Ref.Row != rows[j].Ref.Row {
				return rows[i].Ref.Row < rows[j].Ref.Row
			}
			return rows[i].Ref.Version < rows[j].Ref.Version
		})
		out[table] = rows
	}
	return out
}

// RelevantTuple is one tuple version destined for a package CSV.
type RelevantTuple struct {
	Ref    engine.TupleRef
	Values []sqlval.Value
	// Cells is the pre-encoded CSV form, produced when the tuple first
	// became relevant.
	Cells []string
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
