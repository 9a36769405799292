package ldv

import (
	"sort"
	"time"

	"ldv/internal/engine"
	"ldv/internal/osim"
	"ldv/internal/prov"
)

// traceFold is the state of one fold of an audit log, which lives only as
// long as the fold.
type traceFold struct {
	a      *Auditor
	server map[int]bool            // pids spawned from the DB server binary
	opens  map[osim.Event][]uint64 // open times awaiting their close, by pid, path and mode
	// the paths application processes read and wrote, and the server touched
	appRead, appWritten, serverFiles map[string]bool
}

// fold builds, once monitoring has stopped, everything the audit knows
// beyond the §VII-D step: the trace's processes, files, statements, result
// tuples, edges and dependencies, the per-session interaction logs and the
// counters. It walks the syscall events and statement records in arrival
// order, so it is a pure function of the log and the tuple nodes the §VII-D
// step interned.
func (a *Auditor) fold() {
	t0 := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	f := traceFold{a: a, server: map[int]bool{}, opens: map[osim.Event][]uint64{},
		appRead: map[string]bool{}, appWritten: map[string]bool{}, serverFiles: map[string]bool{}}
	next := 0
	for i := range a.records {
		r := &a.records[i]
		for ; next < r.events; next++ {
			f.event(a.events[next])
		}
		f.statement(r)
	}
	for ; next < len(a.events); next++ {
		f.event(a.events[next])
	}
	a.appRead, a.appWritten, a.serverFiles = sortedKeys(f.appRead), sortedKeys(f.appWritten), sortedKeys(f.serverFiles)
	a.events, a.records = nil, nil
	hTraceNS.Observe(time.Since(t0))
}

// event folds one syscall event into the trace (§VII-A): a spawn becomes an
// executed edge, an open/close pair a readFrom or hasWritten edge annotated
// with the interval between first open and close.
func (f *traceFold) event(ev osim.Event) {
	countEvent(ev.Kind)
	tr := f.a.trace
	switch ev.Kind {
	case osim.EvSpawn:
		// Processes are classified at spawn, before they issue any syscalls.
		if ev.Path == ServerBinaryPath {
			f.server[ev.PID] = true
			return
		}
		child := f.proc(ev.PID)
		tr.SetAttr(child, prov.AttrBinary, ev.Path)
		parent := f.proc(ev.PPID) // the root harness process counts too
		_, _ = tr.Link(parent, child, prov.EdgeExecuted, prov.Point(ev.Time), 0)
	case osim.EvOpen:
		key := osim.Event{PID: ev.PID, Path: ev.Path, Write: ev.Write}
		f.opens[key] = append(f.opens[key], ev.Time)
	case osim.EvClose:
		key := osim.Event{PID: ev.PID, Path: ev.Path, Write: ev.Write}
		stack := f.opens[key]
		if len(stack) == 0 {
			return // close without tracked open (tracer attached mid-flight)
		}
		openT := stack[0]
		f.opens[key] = stack[1:]
		if f.server[ev.PID] {
			f.serverFiles[ev.Path] = true
			return
		}
		proc := f.proc(ev.PID)
		file, _ := tr.Intern(tr.FileKey(ev.Path), prov.TypeFile)
		iv := prov.Interval{Begin: openT, End: ev.Time}
		if ev.Write {
			f.appWritten[ev.Path] = true
			_, _ = tr.Link(proc, file, prov.EdgeHasWritten, iv, 0)
		} else {
			f.appRead[ev.Path] = true
			_, _ = tr.Link(file, proc, prov.EdgeReadFrom, iv, 0)
		}
	case osim.EvConnect, osim.EvExit:
		// Connects surface in the trace through run edges when statements
		// execute; exits need no trace structure.
	}
}

// sortedKeys returns the keys of m in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// proc returns the node of process pid; the node types of the combined
// model cannot fail to intern.
func (f *traceFold) proc(pid int) prov.Ref {
	r, _ := f.a.trace.Intern(prov.ProcKey(pid), prov.TypeProcess)
	return r
}

// statement folds one statement record: its entry in its session's log and,
// if it ran, its node (SQL, request trace), its process's run edge, runs of
// hasRead and hasReturned edges over the nodes the §VII-D step interned,
// version dependencies, and a query's result tuples.
func (f *traceFold) statement(r *stmtRecord) {
	a, tr := f.a, f.a.trace
	r.log.Entries = append(r.log.Entries, r.LogEntry)
	mAudLogEntries.Inc()
	if r.Error != "" {
		return
	}
	a.stmtCount++
	mAudStmts.Inc()
	a.tupleFetched += len(r.nodes)
	mTuplesFetched.Add(int64(len(r.nodes)))

	stype := activityType(r.kind)
	stmt, _ := tr.Intern(prov.StmtKey(r.stmt), stype)
	tr.SetAttr(stmt, prov.AttrSQL, r.SQL)
	if len(r.Args) > 0 {
		// What tells two executions of one prepared statement apart when
		// people read the trace (ldv-trace, DOT, PROV-JSON).
		tr.SetAttr(stmt, prov.AttrLabel, describeStatement(r.SQL, r.Args))
	}
	tr.SetAttr(stmt, prov.AttrTrace, r.TraceID)
	traceID := tr.InternString(r.TraceID)
	proc := f.proc(r.pid)
	_, _ = tr.Link(proc, stmt, prov.EdgeRun, r.iv, traceID)

	// hasRead: every tuple version in some result row's lineage or in the
	// DML read set. hasReturned: the stored versions a DML statement wrote.
	_ = tr.LinkRun(stmt, r.nodes, false, prov.EdgeHasRead, r.iv, traceID)
	_ = tr.LinkRun(stmt, r.written, true, prov.EdgeHasReturned, r.iv, traceID)
	switch stype {
	case prov.TypeUpdate:
		// Reenactment pairing: an old and a new version of one row.
		row := func(n prov.Ref) prov.Key { k := tr.Key(n); k.B = 0; return k }
		byRow := make(map[prov.Key]prov.Ref, len(r.written))
		for _, w := range r.written {
			byRow[row(w)] = w
		}
		for _, old := range r.nodes {
			if w, ok := byRow[row(old)]; ok {
				_ = tr.LinkDep(old, w)
			}
		}
	case prov.TypeInsert:
		// INSERT ... SELECT: conservatively, every written tuple depends on
		// every read tuple (per-row lineage is not tracked across the copy).
		for _, src := range r.nodes {
			for _, nw := range r.written {
				_ = tr.LinkDep(src, nw)
			}
		}
	case prov.TypeQuery:
		// Result tuples: returned by the statement and read by the process,
		// a run each, and dependent on their lineage (Definition 7) —
		// positions in the version set, so nodes[pos].
		results := make([]prov.Ref, len(r.Rows))
		for i := range results {
			results[i], _ = tr.Intern(prov.ResultKey(r.stmt, i), prov.TypeTuple)
			if i < len(r.lineage) {
				for _, pos := range r.lineage[i] {
					_ = tr.LinkDep(r.nodes[pos], results[i])
				}
			}
		}
		_ = tr.LinkRun(stmt, results, true, prov.EdgeHasReturned, r.iv, traceID)
		_ = tr.LinkRun(proc, results, false, prov.EdgeReadFrom, r.iv, traceID)
	}
}

// activityType is the PLin activity type of an engine statement kind: a
// COPY ... FROM is a bulk load, an insert; a statement that writes no
// tuples — a COPY ... TO, an EXPLAIN ANALYZE, DDL — is a query.
func activityType(k engine.StmtKind) string {
	switch k {
	case engine.StmtInsert, engine.StmtCopyFrom:
		return prov.TypeInsert
	case engine.StmtUpdate:
		return prov.TypeUpdate
	case engine.StmtDelete:
		return prov.TypeDelete
	}
	return prov.TypeQuery
}
