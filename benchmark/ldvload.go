package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"ldv/internal/deps"
	"ldv/internal/engine"
	"ldv/internal/ldv"
	"ldv/internal/obs"
	"ldv/internal/osim"
	"ldv/internal/pack"
	"ldv/internal/prov"
	"ldv/internal/tpch"
)

// The two LDV workloads run the paper's pipeline — plain run, audited run,
// package, replay — over an application that is the benchmark's own function.
// ldv_app is §IX-A's three-step app; ldv_wide is a select-only app over the
// high-selectivity variant of each Table II family.

const (
	appBinary = "/usr/bin/bench-app"
	appOutput = "/home/bench/out.txt"
	setupReps = 5 // set-ups per run; setup_s is their median

	depsSample = 100 // tuple entities whose dependents the deps probe computes
)

// ldvSizes fixes the work of one iteration. An iteration is one round: the
// counts are constants so rows, bytes and statements compare across commits.
type ldvSizes struct {
	sf                        float64
	inserts, selects, updates int // ldv_app
	execs                     int // ldv_wide: executions per query
	replays                   int // replays per package per iteration
	minRounds                 int
}

func ldvSizing(tiny bool) ldvSizes {
	if tiny {
		return ldvSizes{sf: 0.001, inserts: 10, selects: 2, updates: 5, execs: 1, replays: 1, minRounds: 1}
	}
	return ldvSizes{sf: 0.005, inserts: 100, selects: 5, updates: 25, execs: 1, replays: 3, minRounds: 5}
}

// appStmt is one statement of the application with the step it belongs to.
type appStmt struct {
	group string // inserts | select | updates, or the query label on ldv_wide
	sql   string
	read  bool
}

// genApp builds the application's statement list from the seed.
func genApp(workload string, tc tpch.Config, sz ldvSizes) ([]appStmt, error) {
	cnt := tc.Counts()
	r := newRNG(tc.Seed ^ 0xa99)
	var out []appStmt
	if workload == "ldv_wide" {
		for e := 0; e < sz.execs; e++ {
			for _, label := range wideQueries {
				q, err := tpch.QueryByID(tc, tpchID(label))
				if err != nil {
					return nil, err
				}
				out = append(out, appStmt{group: label, sql: q.SQL, read: true})
			}
		}
		return out, nil
	}
	for i := 1; i <= sz.inserts; i++ {
		// Keys beyond the generated range: re-execution against a restored
		// subset cannot collide.
		out = append(out, appStmt{group: "inserts", sql: fmt.Sprintf(
			`INSERT INTO orders VALUES (%d, %d, 'O', %d, DATE '1998-08-02', '3-MEDIUM', 'Clerk#%09d', 'bench insert %d')`,
			cnt.Orders+1_000_000+i, 1+r.intn(cnt.Customer), 1000+r.intn(9000), 1+r.intn(1000), i)})
	}
	q, err := tpch.QueryByID(tc, "Q1-1")
	if err != nil {
		return nil, err
	}
	for i := 0; i < sz.selects; i++ {
		out = append(out, appStmt{group: "select", sql: q.SQL, read: true})
	}
	seen := map[int]bool{}
	for i := 1; i <= sz.updates; i++ {
		key := 1 + r.intn(cnt.Orders)
		for seen[key] {
			key = 1 + r.intn(cnt.Orders)
		}
		seen[key] = true
		out = append(out, appStmt{group: "updates", sql: fmt.Sprintf(
			`UPDATE orders SET o_comment = 'bench update %d' WHERE o_orderkey = %d`, i, key)})
	}
	return out, nil
}

// tpchID maps q1_5 to the paper's Q1-5.
func tpchID(label string) string {
	return strings.ToUpper(strings.Replace(label, "_", "-", 1))
}

// appRun is what one execution of the application leaves behind.
type appRun struct {
	stmtTime []time.Duration // per statement, aligned with the statement list
}

// benchApp wraps the statement list as an installable binary. Each select's
// row count and order-independent checksum go to the output file, which is
// what replays must reproduce byte for byte. Spans (when rec is non-nil) hang
// under parent, the span of the ldv call that runs the app.
func benchApp(stmts []appStmt, run *appRun, rec *recorder, parent, op int) ldv.App {
	return ldv.App{
		Binary: appBinary,
		Libs:   ldv.ClientLibs(),
		Size:   180 << 10,
		Prog: func(p *osim.Process) error {
			run.stmtTime = make([]time.Duration, len(stmts))
			sid := rec.begin("app.connect", parent, op)
			conn, err := ldv.Dial(p)
			rec.end(sid)
			if err != nil {
				return err
			}
			defer conn.Close()
			var out bytes.Buffer
			for i, st := range stmts {
				sid := rec.begin("app."+st.group, parent, op)
				t0 := time.Now()
				res, err := conn.Query(st.sql)
				run.stmtTime[i] = time.Since(t0)
				rec.end(sid)
				if err != nil {
					return fmt.Errorf("statement %d (%s): %w", i, st.group, err)
				}
				if st.read {
					fmt.Fprintf(&out, "%s %d %016x\n", st.group, len(res.Rows), rowsChecksum(res))
				} else {
					fmt.Fprintf(&out, "%s %d\n", st.group, res.RowsAffected)
				}
			}
			return p.WriteFile(appOutput, out.Bytes())
		},
	}
}

// rowsChecksum is an order-independent digest of a result's rows: SQL
// without ORDER BY promises no order, and a replay against the restored
// subset may legitimately return another one.
func rowsChecksum(res *engine.Result) uint64 {
	var sum uint64
	for _, row := range res.Rows {
		h := uint64(0)
		for _, v := range row {
			h = fnv64(h, v.String())
			h = fnv64(h, "|")
		}
		sum += h
	}
	return sum
}

// dataTemplate generates the TPC-H dataset once and encodes it as data-dir
// files, which every machine of the run is stamped from — the pre-existing
// on-disk database §IX-A's runs start from.
func dataTemplate(tc tpch.Config) (map[string][]byte, error) {
	db := engine.NewDB(nil)
	if _, err := tpch.Load(db, tc); err != nil {
		return nil, err
	}
	fs := osim.NewFS()
	if err := db.Checkpoint(fs, "/t"); err != nil {
		return nil, err
	}
	names, err := fs.ReadDir("/t")
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, n := range names {
		data, err := fs.ReadFile("/t/" + n)
		if err != nil {
			return nil, err
		}
		files[n] = data
	}
	return files, nil
}

// bootMachine is ldv.NewMachine plus loading the template data directory.
func bootMachine(files map[string][]byte) (*ldv.Machine, error) {
	m, err := ldv.NewMachine()
	if err != nil {
		return nil, err
	}
	fs := m.Kernel.FS()
	for name, data := range files {
		if err := fs.WriteFile(m.DataDir+"/"+name, data); err != nil {
			return nil, err
		}
	}
	if err := m.DB.LoadDir(fs, m.DataDir); err != nil {
		return nil, err
	}
	return m, nil
}

// obsDelta reads the few obs numbers the LDV per-layer metrics use, as
// deltas between two snapshots. A name a later change renamed is reported as
// missing and reads as 0, never as a failure.
type obsDelta struct {
	before, after *obs.Snapshot
	res           *result
}

func (d obsDelta) counter(name string) float64 {
	if _, ok := d.after.Counters[name]; !ok {
		d.res.missing(name)
		return 0
	}
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d obsDelta) counterPrefix(prefix string) float64 {
	var sum float64
	found := false
	for name, v := range d.after.Counters {
		if strings.HasPrefix(name, prefix) {
			sum += float64(v - d.before.Counters[name])
			found = true
		}
	}
	if !found {
		d.res.missing(prefix + "*")
	}
	return sum
}

func (d obsDelta) histSum(name string) time.Duration {
	if _, ok := d.after.Histograms[name]; !ok {
		d.res.missing(name)
		return 0
	}
	return d.after.HistogramSumNS(name) - d.before.HistogramSumNS(name)
}

// ldvIter holds one iteration's measurements: the end-to-end quantities as
// fields, and — in a traced run — the per-layer metrics by name.
type ldvIter struct {
	plain, auditSI, auditSE time.Duration
	packageSI               time.Duration // build + marshal
	replaySI, replaySE      time.Duration // mean over the iteration's replays
	pkgSIBytes, pkgSEBytes  int
	layer                   map[string]float64
}

// runLDV runs ldv_app or ldv_wide.
func runLDV(cfg config) (*result, error) {
	sz := ldvSizing(cfg.tiny)
	res := newResult(cfg, 1, "one app process inside an ldv.Machine, each statement waits for its reply")
	tc := tpch.Config{SF: sz.sf, Seed: cfg.seed}

	var files map[string][]byte
	var stmts []appStmt
	setups := make([]float64, cfg.setupReps())
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		var err error
		if files, err = dataTemplate(tc); err != nil {
			return nil, err
		}
		if stmts, err = genApp(cfg.workload, tc, sz); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}

	var iters []ldvIter
	cfg.rounds(sz.minRounds, func(i int) bool {
		runtime.GC()
		it, err := ldvIteration(cfg, res, sz, files, stmts, i)
		if err != nil {
			res.fail("iteration %d: %v", i, err)
			return false
		}
		if i >= 0 {
			iters = append(iters, it)
		}
		return true
	})
	if len(iters) == 0 {
		return res, nil
	}

	col := func(f func(ldvIter) float64) []float64 {
		v := make([]float64, len(iters))
		for i, it := range iters {
			v[i] = f(it)
		}
		return v
	}
	dur := func(f func(ldvIter) time.Duration) []float64 {
		return col(func(it ldvIter) float64 { return ms(f(it)) })
	}
	res.primary = median(dur(func(it ldvIter) time.Duration { return it.auditSI }))
	if cfg.traced {
		// Per-layer metrics: medians over the traced iterations of whatever
		// each iteration recorded (the deps probe runs in the first only).
		for _, d := range perLayer {
			var v []float64
			for _, it := range iters {
				if x, ok := it.layer[d.Name]; ok {
					v = append(v, x)
				}
			}
			if len(v) > 0 {
				res.set(d.Name, overRounds(v, d.Unit, 1))
			}
		}
		return res, nil
	}
	n := len(stmts)
	res.set("setup_s", overRounds(setups, "s", 1))
	res.set("plain_ms", overRounds(dur(func(it ldvIter) time.Duration { return it.plain }), "ms", n))
	res.set("audit_si_ms", overRounds(dur(func(it ldvIter) time.Duration { return it.auditSI }), "ms", n))
	res.set("audit_se_ms", overRounds(dur(func(it ldvIter) time.Duration { return it.auditSE }), "ms", n))
	res.set("package_si_ms", overRounds(dur(func(it ldvIter) time.Duration { return it.packageSI }), "ms", 1))
	res.set("replay_si_ms", overRounds(dur(func(it ldvIter) time.Duration { return it.replaySI }), "ms", sz.replays))
	res.set("replay_se_ms", overRounds(dur(func(it ldvIter) time.Duration { return it.replaySE }), "ms", sz.replays))
	res.set("pkg_si_bytes", overRounds(col(func(it ldvIter) float64 { return float64(it.pkgSIBytes) }), "bytes", 1))
	res.set("pkg_se_bytes", overRounds(col(func(it ldvIter) float64 { return float64(it.pkgSEBytes) }), "bytes", 1))
	return res, nil
}

// stepTime maps the Fig 7a steps onto an app run: the summed inserts, the
// first (cold) select, the mean of the other selects, the summed updates.
func stepTime(stmts []appStmt, run appRun, step string) time.Duration {
	var sum time.Duration
	var selects []time.Duration
	for i, st := range stmts {
		if i >= len(run.stmtTime) {
			break
		}
		switch {
		case st.read:
			selects = append(selects, run.stmtTime[i])
		case st.group == step:
			sum += run.stmtTime[i]
		}
	}
	switch step {
	case "first_select":
		if len(selects) > 0 {
			return selects[0]
		}
		return 0
	case "other_selects":
		if len(selects) < 2 {
			return 0
		}
		for _, d := range selects[1:] {
			sum += d
		}
		return sum / time.Duration(len(selects)-1)
	}
	return sum
}

// groupMean is the mean statement time of one group.
func groupMean(stmts []appStmt, run appRun, group string) time.Duration {
	var sum time.Duration
	n := 0
	for i, st := range stmts {
		if st.group == group && i < len(run.stmtTime) {
			sum += run.stmtTime[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// ldvIteration is one round: plain run, server-included audit + package,
// server-excluded audit + package, then the replays of both packages, each
// checked against the audited run's output file.
func ldvIteration(cfg config, res *result, sz ldvSizes, files map[string][]byte, stmts []appStmt, op int) (ldvIter, error) {
	var it ldvIter
	rec := cfg.rec
	if op < 0 {
		rec = nil // warm-up rounds leave no spans
	}
	// layer records a per-layer value; only traced iterations keep them.
	layer := func(name string, v float64) {
		if rec != nil {
			it.layer[name] = v
		}
	}
	if rec != nil {
		it.layer = map[string]float64{}
	}
	root := rec.begin("iteration", -1, op)
	defer rec.end(root)

	boot := func() (*ldv.Machine, error) {
		var m *ldv.Machine
		d, err := rec.timed("osim.boot", root, op, func() (err error) {
			m, err = bootMachine(files)
			return err
		})
		layer("osim.boot_ms", ms(d))
		return m, err
	}
	// runApp runs f (one of ldv.Run / ldv.Audit…) with a fresh app whose
	// spans hang under the call's span, and returns the app's output file.
	runApp := func(name string, m *ldv.Machine, run *appRun, f func(apps []ldv.App) error) (time.Duration, []ldv.App, []byte, error) {
		sid := rec.begin(name, root, op)
		apps := []ldv.App{benchApp(stmts, run, rec, sid, op)}
		res.attempt(len(stmts))
		t0 := time.Now()
		err := f(apps)
		d := time.Since(t0)
		rec.end(sid)
		if err != nil {
			return d, apps, nil, err
		}
		out, err := m.Kernel.FS().ReadFile(appOutput)
		return d, apps, out, err
	}
	check := func(what string, got, want []byte) {
		res.attempt(1)
		if !bytes.Equal(got, want) {
			res.fail("%s: output file differs from the audited run's (%d vs %d bytes)", what, len(got), len(want))
		}
	}

	// Plain run.
	m, err := boot()
	if err != nil {
		return it, err
	}
	var plainRun, siRun, seRun appRun
	var plainOut []byte
	it.plain, _, plainOut, err = runApp("ldv.Run", m, &plainRun, func(apps []ldv.App) error { return ldv.Run(m, apps) })
	if err != nil {
		return it, fmt.Errorf("plain run: %w", err)
	}

	// Server-included audit and package.
	if m, err = boot(); err != nil {
		return it, err
	}
	var aud *ldv.Auditor
	var before *obs.Snapshot
	if rec != nil {
		before = obs.TakeSnapshot()
	}
	var apps []ldv.App
	var siOut []byte
	it.auditSI, apps, siOut, err = runApp("ldv.Audit.si", m, &siRun, func(apps []ldv.App) (err error) {
		aud, err = ldv.Audit(m, apps)
		return err
	})
	if err != nil {
		return it, fmt.Errorf("server-included audit: %w", err)
	}
	check("server-included audit", siOut, plainOut)
	if rec != nil {
		d := obsDelta{before, obs.TakeSnapshot(), res}
		attributed := time.Duration(0)
		for name, hist := range map[string]string{
			"ldv.lineage_ms": obs.MetricLineageNS, "ldv.trace_build_ms": obs.MetricTraceNS,
			"ldv.dedup_ms": obs.MetricDedupNS, "ldv.spool_ms": obs.MetricSpoolNS,
		} {
			part := d.histSum(hist)
			attributed += part
			layer(name, ms(part))
		}
		layer("ldv.audit_unattributed_share", ratio(float64(it.auditSI-it.plain-attributed), float64(it.auditSI)))
		fetched := d.counter("auditor.tuples.fetched")
		layer("ldv.tuples_fetched", fetched)
		layer("ldv.tuples_stored", d.counter("auditor.tuples.stored"))
		layer("ldv.dedup_ratio", ratio(d.counter("auditor.tuples.deduped"), fetched))
		layer("osim.syscalls_intercepted", d.counterPrefix("auditor.syscalls."))
		layer("ldv.audit_overhead_si_pct", 100*ratio(float64(it.auditSI-it.plain), float64(it.plain)))
		for _, step := range appSteps {
			layer("ldv.plain_step_ms."+step, ms(stepTime(stmts, plainRun, step)))
			layer("ldv.si_step_ms."+step, ms(stepTime(stmts, siRun, step)))
		}
		if cfg.workload == "ldv_wide" {
			for _, q := range wideQueries {
				layer("ldv.si_query_ms."+q, ms(groupMean(stmts, siRun, q)))
			}
		}
	}
	var archSI *pack.Archive
	buildSI, err := rec.timed("ldv.BuildServerIncluded", root, op, func() (err error) {
		archSI, err = ldv.BuildServerIncluded(m, aud, apps)
		return err
	})
	if err != nil {
		return it, err
	}
	var pkgSI []byte
	marshalSI, _ := rec.timed("pack.Marshal.si", root, op, func() error { pkgSI = archSI.Marshal(); return nil })
	it.packageSI = buildSI + marshalSI
	it.pkgSIBytes = len(pkgSI)
	layer("pack.marshal_ms", ms(marshalSI))
	if rec != nil {
		if err := ldvLayerProbes(layer, rec, root, op, aud, archSI); err != nil {
			return it, err
		}
	}

	// Server-excluded audit and package.
	if m, err = boot(); err != nil {
		return it, err
	}
	var seOut []byte
	it.auditSE, apps, seOut, err = runApp("ldv.Audit.se", m, &seRun, func(apps []ldv.App) (err error) {
		aud, err = ldv.AuditWithOptions(m, apps, ldv.AuditOptions{CollectLineage: false})
		return err
	})
	if err != nil {
		return it, fmt.Errorf("server-excluded audit: %w", err)
	}
	check("server-excluded audit", seOut, plainOut)
	layer("ldv.audit_overhead_se_pct", 100*ratio(float64(it.auditSE-it.plain), float64(it.plain)))
	var archSE *pack.Archive
	buildSE, err := rec.timed("ldv.BuildServerExcluded", root, op, func() (err error) {
		archSE, err = ldv.BuildServerExcluded(m, aud, apps)
		return err
	})
	if err != nil {
		return it, err
	}
	var pkgSE []byte
	marshalSE, _ := rec.timed("pack.Marshal.se", root, op, func() error { pkgSE = archSE.Marshal(); return nil })
	it.pkgSEBytes = len(pkgSE)
	layer("ldv.package_se_ms", ms(buildSE+marshalSE))
	layer("pack.se_log_bytes", float64(entrySize(archSE, ldv.DBLogPath)))

	// Replays: unmarshal + prepare + run, output checked every time. The
	// result is the mean over the iteration's replays.
	replay := func(kind string, pkg []byte, want []byte) (time.Duration, error) {
		var unmarshal, prep, run time.Duration
		for i := 0; i < sz.replays; i++ {
			sid := rec.begin("replay."+kind, root, op)
			var arch *pack.Archive
			du, err := rec.timed("pack.Unmarshal."+kind, sid, op, func() (err error) {
				arch, err = pack.Unmarshal(pkg)
				return err
			})
			if err != nil {
				return 0, err
			}
			var arun appRun
			app := benchApp(stmts, &arun, rec, sid, op)
			res.attempt(len(stmts))
			var setup *ldv.ReplaySetup
			dp, err := rec.timed("ldv.PrepareReplay."+kind, sid, op, func() (err error) {
				setup, err = ldv.PrepareReplay(arch, map[string]osim.Program{app.Binary: app.Prog})
				return err
			})
			if err != nil {
				return 0, err
			}
			dr, err := rec.timed("ldv.ReplayRun."+kind, sid, op, setup.Run)
			ldv.ClearRuntime(setup.Machine.Kernel)
			rec.end(sid)
			if err != nil {
				return 0, err
			}
			got, err := setup.Machine.Kernel.FS().ReadFile(appOutput)
			if err != nil {
				return 0, err
			}
			check(kind+" replay", got, want)
			unmarshal += du
			prep += dp
			run += dr
		}
		k := time.Duration(sz.replays)
		if kind == "si" {
			layer("pack.unmarshal_ms", ms(unmarshal/k))
		}
		layer("ldv.replay_"+kind+"_prepare_ms", ms(prep/k))
		layer("ldv.replay_"+kind+"_run_ms", ms(run/k))
		return (unmarshal + prep + run) / k, nil
	}
	if it.replaySI, err = replay("si", pkgSI, siOut); err != nil {
		return it, fmt.Errorf("server-included replay: %w", err)
	}
	if it.replaySE, err = replay("se", pkgSE, seOut); err != nil {
		return it, fmt.Errorf("server-excluded replay: %w", err)
	}
	return it, nil
}

// ldvLayerProbes times the standalone prov / deps / pack calls on the
// audited trace and sizes the package's parts (traced iterations only).
func ldvLayerProbes(layer func(string, float64), rec *recorder, root, op int, aud *ldv.Auditor, arch *pack.Archive) error {
	relevant := float64(aud.RelevantTupleCount())
	layer("ldv.stmts", float64(aud.StatementCount()))
	layer("ldv.relevant_tuples", relevant)
	d, _ := rec.timed("ldv.RelevantTuples", root, op, func() error { aud.RelevantTuples(); return nil })
	layer("ldv.relevant_tuples_ms", ms(d))
	tr := aud.Trace()
	layer("prov.nodes", float64(tr.NodeCount()))
	layer("prov.edges", float64(tr.EdgeCount()))
	d, err := rec.timed("prov.Marshal", root, op, func() error {
		data, err := tr.Marshal()
		layer("prov.trace_bytes", float64(len(data)))
		return err
	})
	if err != nil {
		return err
	}
	layer("prov.marshal_ms", ms(d))

	tupleBytes := float64(arch.SizeUnder(ldv.ProvDataDir))
	serverBytes := entrySize(arch, ldv.ServerBinaryPath)
	for _, lib := range ldv.ServerLibs() {
		serverBytes += entrySize(arch, lib)
	}
	layer("pack.si_tuple_bytes", tupleBytes)
	layer("pack.si_server_bytes", float64(serverBytes))
	layer("pack.si_trace_bytes", float64(entrySize(arch, ldv.TracePath)))
	layer("pack.bytes_per_relevant_tuple", ratio(tupleBytes, relevant))

	// Inferencer.All is quadratic in the trace, and the dependents of one file
	// every process read take 10 s to compute on ldv_wide's 31 k-node trace.
	// So the closure is timed over a fixed sample — the dependents of the
	// first depsSample tuple entities in id order — in the first iteration.
	if op > 0 {
		return nil
	}
	pairs := 0
	d, _ = rec.timed("deps.Dependents", root, op, func() error {
		inf := deps.NewDefaultInferencer(tr)
		sampled := 0
		for _, n := range tr.Nodes() {
			if sampled == depsSample {
				break
			}
			if n.Type == prov.TypeTuple {
				pairs += len(inf.Dependents(n.ID))
				sampled++
			}
		}
		return nil
	})
	layer("deps.closure_ms", ms(d))
	layer("deps.pairs", float64(pairs))
	return nil
}

func entrySize(arch *pack.Archive, path string) int64 {
	if e := arch.Entry(path); e != nil {
		return int64(len(e.Data))
	}
	return 0
}
