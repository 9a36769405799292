package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ldv/internal/engine"
	"ldv/internal/obs"
	"ldv/internal/osim"
	"ldv/internal/server"
	"ldv/internal/sqlval"
)

// wire_oltp: closed-loop clients drive a mixed read/write stream over the
// wire against one WAL-backed table that keeps churning. The statement path
// (client → wire → server → sqlparse → plan → index probe) and the storage
// path (MVCC versions, WAL, vacuum) do the work; the scan/join executor idles.

type oltpSizes struct {
	rows        int // initial acct rows
	opsPerRound int // per client
	vacuumEvery int // client 0 vacuums after this many of its ops
	retain      int // VACUUM RETAIN n, in clock ticks
	minRounds   int
}

func oltpSizing(tiny bool) oltpSizes {
	if tiny {
		return oltpSizes{rows: 500, opsPerRound: 200, vacuumEvery: 100, retain: 20_000, minRounds: 1}
	}
	return oltpSizes{rows: 20_000, opsPerRound: 8000, vacuumEvery: 2000, retain: 120_000, minRounds: 5}
}

const (
	// oltpClients is the number of connections. A client and its server
	// goroutine take turns, so one pair keeps one processor busy and leaves the
	// other to the garbage collector; two pairs on the 2 shared vCPUs of the
	// reference box measured the host's scheduler (README.md, "Measured
	// spread"). The streams and the write model are per client, so a box with
	// processors to spare can raise this.
	oltpClients = 1
	adhocShapes = 512 // above the engine's 256-entry plan cache
	pipeBatch   = 16
	walDir      = "/data"
)

// oltpMix is the op mix by count, in percent of a client's round.
var oltpMix = []struct {
	class string
	pct   int
}{
	{"text_point", 20}, {"prep_point", 20}, {"pipe16_stmt", 10}, {"range10", 8}, {"adhoc", 5},
	{"asof_point", 2}, {"update", 25}, {"insert", 5}, {"txn_transfer", 5},
}

// Prepared statements every connection holds (3 shapes; with the text
// shapes they stay well under the plan cache's 256 entries — only adhoc's
// 512 shapes overflow it).
const (
	stPoint = iota
	stRange
	stUpdate
)

var oltpPrepared = []string{
	stPoint:  "SELECT id, owner, branch, balance FROM acct WHERE id = ?",
	stRange:  "SELECT id, owner, branch FROM acct WHERE id BETWEEN ? AND ?",
	stUpdate: "UPDATE acct SET balance = balance + ?, ver = ver + 1 WHERE id = ?",
}

// oltpModel is the benchmark's own model of the table. owner, branch and
// note never change (reads are checked against them); balance and ver of a
// row are written by exactly one client, which keeps them here.
type oltpModel struct {
	seed    uint64
	rows    int
	owners  []string // initial rows, by id: precomputed for the read checks
	balance []int64
	ver     []int64
	extra   []map[int]int64 // per client: inserted id -> balance
}

func (m *oltpModel) owner(id int) string {
	if id < len(m.owners) {
		return m.owners[id]
	}
	return fmt.Sprintf("owner-%07d", (uint64(id)*7919+m.seed)%9_999_991)
}
func (m *oltpModel) branch(id int) int64 { return int64((uint64(id)*31 + m.seed) % 97) }
func (m *oltpModel) note(id int) string {
	return fmt.Sprintf("account %d opened at branch %d, immutable filler", id, m.branch(id))
}

// userBytes is the payload of one row version as a client would send it.
func (m *oltpModel) userBytes(id int) int {
	return 8 + len(m.owner(id)) + 8 + 8 + 8 + len(m.note(id))
}

// newOLTPTarget builds one acct database: bulk-loaded rows, an ordered index
// on the key, a base checkpoint, and a WAL on an in-memory file system (the
// engine's group commit; one append per commit batch; "sync" is a memory
// append).
func newOLTPTarget(m *oltpModel) (*target, *osim.FS, error) {
	db := engine.NewDB(nil)
	if _, err := db.Exec("CREATE TABLE acct (id INTEGER PRIMARY KEY, owner TEXT, branch INTEGER, balance INTEGER, ver INTEGER, note TEXT)", engine.ExecOptions{}); err != nil {
		return nil, nil, err
	}
	for id := 0; id < m.rows; id++ {
		vals := []sqlval.Value{
			sqlval.NewInt(int64(id)), sqlval.NewString(m.owner(id)), sqlval.NewInt(m.branch(id)),
			sqlval.NewInt(1000), sqlval.NewInt(0), sqlval.NewString(m.note(id)),
		}
		if _, err := db.InsertRowDirect("acct", vals); err != nil {
			return nil, nil, err
		}
	}
	if _, err := db.Exec("CREATE INDEX ix_acct_id ON acct (id) USING ordered", engine.ExecOptions{}); err != nil {
		return nil, nil, err
	}
	fs := osim.NewFS()
	if err := db.Checkpoint(fs, walDir); err != nil {
		return nil, nil, err
	}
	if err := db.EnableWAL(fs, walDir); err != nil {
		return nil, nil, err
	}
	t := &target{db: db, srv: server.New(db, nil), prepared: oltpPrepared}
	t.pin.Store(db.ClockNow())
	return t, fs, nil
}

// genOLTPOps builds one client's op stream for one round: exact counts per
// class, shuffled by the seed. Reads go anywhere in the initial key range;
// writes stay inside the client's own partition (id mod clients), so no
// serialization failure is expected. The model is advanced as ops are
// generated — a closed-loop client applies them in exactly this order.
func genOLTPOps(m *oltpModel, sz oltpSizes, r *rng, client, clients int, nextInsert *int) []op {
	ops := make([]op, 0, sz.opsPerRound)
	for _, mix := range oltpMix {
		for i := 0; i < sz.opsPerRound*mix.pct/100; i++ {
			ops = append(ops, op{class: mix.class})
		}
	}
	for i := len(ops) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		ops[i], ops[j] = ops[j], ops[i]
	}
	anyKey := func() int { return r.intn(m.rows) }
	ownKey := func() int { return r.intn(m.rows/clients)*clients + client }
	for i := range ops {
		o := &ops[i]
		o.stmts = 1
		switch o.class {
		case "text_point":
			o.kind = kText
			o.args = [][]int{{anyKey()}}
			o.sql = []string{fmt.Sprintf("SELECT id, owner, branch, balance FROM acct WHERE id = %d", o.args[0][0])}
		case "prep_point":
			o.kind, o.stmt = kPrepared, stPoint
			o.args = [][]int{{anyKey()}}
		case "pipe16_stmt":
			o.kind, o.stmt, o.stmts = kPipe, stPoint, pipeBatch
			for j := 0; j < pipeBatch; j++ {
				o.args = append(o.args, []int{anyKey()})
			}
		case "range10":
			o.kind, o.stmt = kPrepared, stRange
			lo := r.intn(m.rows - 9)
			o.args = [][]int{{lo, lo + 9}}
		case "adhoc":
			o.kind = kAdhoc
			o.args = [][]int{{anyKey()}}
			o.sql = []string{fmt.Sprintf("SELECT id, owner, branch, balance AS b%d FROM acct WHERE id = ?", r.intn(adhocShapes))}
		case "asof_point":
			o.kind = kAsOf
			o.args = [][]int{{anyKey()}}
			o.sql = []string{fmt.Sprintf("SELECT id, owner, branch, balance FROM acct WHERE id = %d", o.args[0][0])}
		case "update":
			o.kind, o.stmt, o.write = kPrepared, stUpdate, true
			id, delta := ownKey(), 1+r.intn(100)
			o.args = [][]int{{delta, id}}
			m.balance[id] += int64(delta)
			m.ver[id]++
		case "insert":
			o.kind, o.write = kText, true
			id := m.rows + client*10_000_000 + *nextInsert
			*nextInsert++
			bal := 1 + r.intn(5000)
			o.args = [][]int{{id}}
			o.sql = []string{fmt.Sprintf("INSERT INTO acct VALUES (%d, '%s', %d, %d, 0, '%s')", id, m.owner(id), m.branch(id), bal, m.note(id))}
			m.extra[client][id] = int64(bal)
		case "txn_transfer":
			o.kind, o.write, o.stmts = kTxn, true, 4
			from, to, amt := ownKey(), ownKey(), 1+r.intn(50)
			o.sql = []string{
				"BEGIN",
				fmt.Sprintf("UPDATE acct SET balance = balance - %d, ver = ver + 1 WHERE id = %d", amt, from),
				fmt.Sprintf("UPDATE acct SET balance = balance + %d, ver = ver + 1 WHERE id = %d", amt, to),
				"COMMIT",
			}
			m.balance[from] -= int64(amt)
			m.balance[to] += int64(amt)
			m.ver[from]++
			m.ver[to]++
		}
	}
	return ops
}

// oltpTracedRounds is the length of the traced slice, in rounds of ops.
func oltpTracedRounds(tiny bool) int {
	if tiny {
		return 1
	}
	return 2
}

// vacuumOp is the statement client 0 issues every vacuumEvery ops.
func vacuumOp(sz oltpSizes) op {
	return op{kind: kText, class: "vacuum", stmts: 1, sql: []string{fmt.Sprintf("VACUUM RETAIN %d", sz.retain)}}
}

// withVacuum inserts the vacuum op after every vacuumEvery ops.
func withVacuum(ops []op, sz oltpSizes) []op {
	out := make([]op, 0, len(ops)+len(ops)/sz.vacuumEvery)
	for i, o := range ops {
		out = append(out, o)
		if (i+1)%sz.vacuumEvery == 0 {
			out = append(out, vacuumOp(sz))
		}
	}
	return out
}

// oltpCheck verifies reads against the model's immutable columns: the row
// count, the keys, and owner/branch of every returned row.
func oltpCheck(m *oltpModel) checkFunc {
	return func(o *op, exec int, res *engine.Result) string {
		switch o.class {
		case "update":
			if res.RowsAffected != 1 {
				return fmt.Sprintf("update touched %d rows", res.RowsAffected)
			}
			return ""
		case "insert":
			if res.RowsAffected != 1 {
				return fmt.Sprintf("insert wrote %d rows", res.RowsAffected)
			}
			return ""
		case "vacuum":
			return ""
		}
		lo, hi := o.args[exec][0], o.args[exec][0]
		if o.class == "range10" {
			hi = o.args[exec][1]
		}
		if len(res.Rows) != hi-lo+1 {
			return fmt.Sprintf("%s [%d,%d] returned %d rows", o.class, lo, hi, len(res.Rows))
		}
		seen := 0
		for _, row := range res.Rows {
			id := int(row[0].Int())
			if id < lo || id > hi || row[1].Str() != m.owner(id) || row[2].Int() != m.branch(id) {
				return fmt.Sprintf("%s [%d,%d] returned a wrong row for id %d", o.class, lo, hi, id)
			}
			seen += id - lo + 1
		}
		if n := hi - lo + 1; seen != n*(n+1)/2 {
			return fmt.Sprintf("%s [%d,%d] returned duplicate keys", o.class, lo, hi)
		}
		return ""
	}
}

// oltpAfter re-pins the AS OF tick right after a vacuum, so AS OF never
// falls below the retention horizon.
func oltpAfter(t *target, o *op) {
	if o.class == "vacuum" {
		t.pin.Store(t.db.ClockNow())
	}
}

// roundStats is one timed round of one run.
type roundStats struct {
	wall        time.Duration
	stmts       int
	opTime      time.Duration // summed op latencies, all clients
	read, write []float64     // µs per op, all clients
}

func runOLTP(cfg config) (*result, error) {
	sz := oltpSizing(cfg.tiny)
	clients := oltpClients
	if cfg.traced || cfg.oneClient {
		clients = 1
	}
	res := newResult(cfg, clients, fmt.Sprintf(
		"in-process server over net.Pipe, WAL on an in-memory osim.FS (group commit, one append per batch, sync = memory append), %d rows", sz.rows))

	newModel := func() *oltpModel {
		m := &oltpModel{seed: cfg.seed, rows: sz.rows, balance: make([]int64, sz.rows), ver: make([]int64, sz.rows)}
		for i := range m.balance {
			m.balance[i] = 1000
		}
		for i := 0; i < sz.rows; i++ {
			m.owners = append(m.owners, m.owner(i))
		}
		for c := 0; c < clients; c++ {
			m.extra = append(m.extra, map[int]int64{})
		}
		return m
	}

	if cfg.traced {
		return res, runOLTPTraced(cfg, res, sz, newModel)
	}

	var m *oltpModel
	var t *target
	var fs *osim.FS
	setups := make([]float64, cfg.setupReps())
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		m = newModel()
		var err error
		if t, fs, err = newOLTPTarget(m); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	res.set("setup_s", overRounds(setups, "s", 1))

	conns := make([]*clientConn, clients)
	for c := range conns {
		var err error
		if conns[c], err = dialClient(t, t, fmt.Sprintf("bench:%d", c)); err != nil {
			return nil, err
		}
	}
	check := oltpCheck(m)
	rngs := make([]*rng, clients)
	nextInsert := make([]int, clients)
	for c := range rngs {
		rngs[c] = newRNG(cfg.seed ^ uint64(0x01790000+c))
	}

	var rounds []roundStats
	round := func(i int) bool {
		// The round's op streams are generated before its timing starts.
		streams := make([][]op, clients)
		for c := range streams {
			streams[c] = genOLTPOps(m, sz, rngs[c], c, clients, &nextInsert[c])
			if c == 0 {
				streams[c] = withVacuum(streams[c], sz)
			}
		}
		runtime.GC()
		rs := oltpRound(res, t, conns, streams, check)
		if i >= 0 {
			rounds = append(rounds, rs)
		}
		return res.Failed == 0
	}
	if cfg.oneClient {
		// The traced run's reference slice: the very stream the traced slice
		// sends (same seed, same length, fresh table), so the two compare.
		for i := 0; i < oltpTracedRounds(cfg.tiny) && round(i); i++ {
		}
	} else {
		cfg.rounds(sz.minRounds, round)
	}
	for _, cc := range conns {
		cc.conn.Close()
	}
	t.conns.Wait()

	oltpVerify(res, m, t, fs, nil)

	per := func(f func(roundStats) float64) []float64 {
		v := make([]float64, len(rounds))
		for i, rs := range rounds {
			v[i] = f(rs)
		}
		return v
	}
	nRead, nWrite, nStmts := 0, 0, 0
	if len(rounds) > 0 {
		nRead, nWrite, nStmts = len(rounds[0].read), len(rounds[0].write), rounds[0].stmts
	}
	pct := func(lat func(roundStats) []float64, p float64) func(roundStats) float64 {
		return func(rs roundStats) float64 {
			s := lat(rs)
			sort.Float64s(s)
			return percentile(s, p)
		}
	}
	reads := func(rs roundStats) []float64 { return rs.read }
	writes := func(rs roundStats) []float64 { return rs.write }
	res.set("ops_per_s", overRounds(per(func(rs roundStats) float64 { return float64(rs.stmts) / rs.wall.Seconds() }), "ops/s", nStmts))
	res.set("read_p50_us", overRounds(per(pct(reads, 0.50)), "us", nRead))
	res.set("write_p50_us", overRounds(per(pct(writes, 0.50)), "us", nWrite))
	res.Demoted = map[string]metric{
		"read_p99_us":  overRounds(per(pct(reads, 0.99)), "us", nRead),
		"write_p99_us": overRounds(per(pct(writes, 0.99)), "us", nWrite),
	}
	// Mean latency per statement: what the traced run's client depth sums.
	var opTime time.Duration
	stmts := 0
	for _, rs := range rounds {
		opTime += rs.opTime
		stmts += rs.stmts
	}
	res.primary = ratio(us(opTime), float64(stmts))
	return res, nil
}

// oltpRound runs every client's stream concurrently, each a closed loop.
func oltpRound(res *result, t *target, conns []*clientConn, streams [][]op, check checkFunc) roundStats {
	type clientLat struct{ read, write []float64 }
	lats := make([]clientLat, len(conns))
	var stmts, opTime atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := streams[c]
			lat := &lats[c]
			lat.read = make([]float64, 0, len(ops))
			lat.write = make([]float64, 0, len(ops))
			n := 0
			var total time.Duration
			for i := range ops {
				o := &ops[i]
				s := time.Now()
				why := conns[c].exec(o, check)
				d := time.Since(s)
				oltpAfter(t, o)
				n += o.stmts
				total += d
				if why != "" {
					res.fail("client %d op %d (%s): %s", c, i, o.class, why)
					break
				}
				switch {
				case o.class == "vacuum":
				case o.write:
					lat.write = append(lat.write, us(d))
				default:
					// One sample per op; a pipe16 flush reports its
					// per-statement share.
					lat.read = append(lat.read, us(d)/float64(o.stmts))
				}
			}
			stmts.Add(int64(n))
			opTime.Add(int64(total))
		}(c)
	}
	wg.Wait()
	rs := roundStats{wall: time.Since(t0), stmts: int(stmts.Load()), opTime: time.Duration(opTime.Load())}
	for _, l := range lats {
		rs.read = append(rs.read, l.read...)
		rs.write = append(rs.write, l.write...)
	}
	res.attempt(rs.stmts)
	return rs
}

// storageProbe is what the post-run storage checks measured.
type storageProbe struct {
	recover, checkpoint   time.Duration
	checkpointBytes, live int64
}

// oltpVerify is the end-of-run output check: a full scan must equal the
// write model; so must a fresh database recovered from the base checkpoint
// plus the whole WAL; and again one recovered after a new checkpoint. Only
// bytes the file system holds are used — nothing unflushed survives.
func oltpVerify(res *result, m *oltpModel, t *target, fs *osim.FS, probe *storageProbe) {
	matches := func(what string, db *engine.DB) {
		res.attempt(1)
		r, err := db.Exec("SELECT id, balance, ver FROM acct", engine.ExecOptions{})
		if err != nil {
			res.fail("%s: scan: %v", what, err)
			return
		}
		want := m.rows
		for _, ex := range m.extra {
			want += len(ex)
		}
		if len(r.Rows) != want {
			res.fail("%s: %d rows, model has %d", what, len(r.Rows), want)
			return
		}
		for _, row := range r.Rows {
			id, bal, ver := int(row[0].Int()), row[1].Int(), row[2].Int()
			if id < m.rows {
				if bal != m.balance[id] || ver != m.ver[id] {
					res.fail("%s: id %d is (%d, v%d), model says (%d, v%d)", what, id, bal, ver, m.balance[id], m.ver[id])
					return
				}
				continue
			}
			c := (id - m.rows) / 10_000_000
			if c >= len(m.extra) || m.extra[c][id] != bal {
				res.fail("%s: inserted id %d has balance %d, model disagrees", what, id, bal)
				return
			}
		}
	}
	recoverCopy := func(what string) time.Duration {
		clone := osim.NewFS()
		names, err := fs.ReadDir(walDir)
		if err != nil {
			res.fail("%s: %v", what, err)
			return 0
		}
		for _, n := range names {
			data, err := fs.ReadFile(walDir + "/" + n)
			if err == nil {
				err = clone.WriteFile(walDir+"/"+n, data)
			}
			if err != nil {
				res.fail("%s: copy %s: %v", what, n, err)
				return 0
			}
		}
		db := engine.NewDB(nil)
		t0 := time.Now()
		if _, err := db.Recover(clone, walDir); err != nil {
			res.fail("%s: recover: %v", what, err)
			return 0
		}
		d := time.Since(t0)
		matches(what, db)
		return d
	}

	matches("live database", t.db)
	d := recoverCopy("recovery from base checkpoint + WAL")
	t0 := time.Now()
	if err := t.db.Checkpoint(fs, walDir); err != nil {
		res.fail("checkpoint: %v", err)
		return
	}
	ckpt := time.Since(t0)
	recoverCopy("recovery after checkpoint")
	if probe != nil {
		probe.recover, probe.checkpoint = d, ckpt
		probe.checkpointBytes = fs.TotalSize(walDir)
		for id := 0; id < m.rows; id++ {
			probe.live += int64(m.userBytes(id))
		}
		for _, ex := range m.extra {
			for id := range ex {
				probe.live += int64(m.userBytes(id))
			}
		}
	}
}

// runOLTPTraced is the traced run: one client, the same seed and op streams
// at about a quarter of the length, sent down every depth. Its length is an
// op count, not a time, so the counters compare across commits.
func runOLTPTraced(cfg config, res *result, sz oltpSizes, newModel func() *oltpModel) error {
	rounds := oltpTracedRounds(cfg.tiny)
	m := newModel()
	r := newRNG(cfg.seed ^ 0x01790000)
	nextInsert := 0
	var ops []op
	for i := 0; i < rounds; i++ {
		ops = append(ops, withVacuum(genOLTPOps(m, sz, r, 0, 1, &nextInsert), sz)...)
	}
	writeTxns, userBytes := 0, 0
	for i := range ops {
		o := &ops[i]
		switch o.class {
		case "update":
			userBytes += m.userBytes(o.args[0][1])
		case "insert":
			userBytes += m.userBytes(o.args[0][0])
		case "txn_transfer":
			userBytes += 2 * m.userBytes(0)
		}
		if o.write {
			writeTxns++
		}
	}

	// The client depth's target is the one whose counters and storage are
	// reported; the obs registry is process-wide, so its numbers are deltas
	// around that depth alone.
	var first *target
	var firstFS *osim.FS
	var before, after *obs.Snapshot
	var dead, pruned []float64
	mk := func(depth int) (*target, error) {
		t, fs, err := newOLTPTarget(m)
		if depth == 1 && err == nil {
			first, firstFS = t, fs
			before = obs.TakeSnapshot()
		}
		return t, err
	}
	modelCheck := oltpCheck(m)
	check := func(o *op, exec int, res *engine.Result) string {
		if o.class == "vacuum" && len(res.Rows) == 1 {
			pruned = append(pruned, float64(res.Rows[0][1].Int()))
		}
		return modelCheck(o, exec, res)
	}
	hooks := layerHooks{
		beforeOp: func(depth int, t *target, o *op) {
			if depth != 1 || o.class != "vacuum" {
				return
			}
			r, err := t.db.Exec("SELECT dead_versions FROM ldv_stat_tables WHERE name = 'acct'", engine.ExecOptions{})
			if err == nil && len(r.Rows) == 1 {
				dead = append(dead, float64(r.Rows[0][0].Int()))
			}
		},
		afterOp: func(_ int, t *target, o *op) { oltpAfter(t, o) },
		depthDone: func(depth int, _ *target) {
			if depth == 1 {
				after = obs.TakeSnapshot()
			}
		},
	}
	ls, err := runLayers(cfg.rec, ops, mk, check, hooks)
	if err != nil {
		return err
	}
	res.attempt(3 * ls.stmts) // the stream ran at three depths
	for _, f := range ls.failures {
		res.fail("%s", f)
	}
	ls.report(res)
	res.primary = us(ls.client) / float64(ls.stmts)

	for _, class := range oltpClasses {
		res.set("client.p50_us."+class, single(median(ls.clientByClass[class]), "us"))
	}
	for _, class := range sessionClasses {
		res.set("engine.session_us."+class, single(median(ls.sessionByClass[class]), "us"))
	}
	res.set("engine.asof_premium_ratio", single(ratio(median(ls.sessionByClass["asof_point"]), median(ls.sessionByClass["text_point"])), "ratio"))

	d := obsDelta{before, after, res}
	hits, misses := d.counter("plan.cache_hits"), d.counter("plan.cache_misses")
	res.set("plan.cache_hit_ratio", single(ratio(hits, hits+misses), "ratio"))
	ix, full := d.counter("plan.index_scans"), d.counter("plan.full_scans")
	res.set("plan.index_scan_ratio", single(ratio(ix, ix+full), "ratio"))
	res.set("engine.rows_scanned_per_row_returned", single(ratio(d.counter("engine.rows_scanned"), d.counter("engine.rows_returned")), "ratio"))
	walBytes := d.counter("wal.bytes")
	res.set("engine.wal_bytes_per_txn", single(ratio(walBytes, float64(writeTxns)), "bytes"))
	res.set("engine.wal_flushes_per_txn", single(ratio(d.counter("wal.flushes"), float64(writeTxns)), "count"))
	res.set("engine.wal_bytes_per_user_byte", single(ratio(walBytes, float64(userBytes)), "ratio"))

	vacuumUS := ls.clientByClass["vacuum"]
	res.set("engine.vacuum_ms", single(median(vacuumUS)/1000, "ms"))
	var prunedSum, vacuumSec float64
	for i := range pruned {
		prunedSum += pruned[i]
	}
	for _, v := range vacuumUS {
		vacuumSec += v / 1e6
	}
	res.set("engine.vacuum_versions_per_s", single(ratio(prunedSum, vacuumSec), "1/s"))
	res.set("engine.dead_versions_at_vacuum", single(median(dead), "count"))

	var probe storageProbe
	oltpVerify(res, m, first, firstFS, &probe)
	res.set("engine.recover_ms", single(ms(probe.recover), "ms"))
	res.set("engine.checkpoint_ms", single(ms(probe.checkpoint), "ms"))
	res.set("engine.checkpoint_bytes_per_user_byte", single(ratio(float64(probe.checkpointBytes), float64(probe.live)), "ratio"))
	return nil
}
