package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"ldv/internal/engine"
	"ldv/internal/obs"
	"ldv/internal/server"
	"ldv/internal/tpch"
)

// sql_olap: one client runs ten fixed scan/join/aggregate queries over
// static TPC-H data, a plain pass alternating with a SELECT PROVENANCE pass.
// The executor does nearly all the work; parse, plan and wire are noise here.

type olapSizes struct {
	sf        float64
	minRounds int // pairs of passes
}

func olapSizing(tiny bool) olapSizes {
	if tiny {
		return olapSizes{sf: 0.001, minRounds: 1}
	}
	return olapSizes{sf: 0.01, minRounds: 5}
}

const provSuffix = "+prov"

// olapData is the loaded database with what the output checks know about it.
type olapData struct {
	t        *target
	lineitem int
	rangeLo  int
	queries  []string // SQL of the ten queries, in olapQueries order
}

func newOLAPData(tc tpch.Config) (*olapData, error) {
	db := engine.NewDB(nil)
	stats, err := tpch.Load(db, tc)
	if err != nil {
		return nil, err
	}
	if _, err := db.Exec("CREATE INDEX ix_l_orderkey ON lineitem (l_orderkey) USING ordered", engine.ExecOptions{}); err != nil {
		return nil, err
	}
	d := &olapData{t: &target{db: db, srv: server.New(db, nil)}, lineitem: stats.Lineitem}
	d.rangeLo = 1 + newRNG(tc.Seed^0x01a9).intn(stats.Counts.Orders-100)
	for _, label := range olapQueries {
		var sql string
		switch label {
		case "groupby":
			sql = "SELECT l_returnflag, l_linestatus, COUNT(*) AS n, SUM(l_quantity) AS qty, AVG(l_extendedprice) AS price FROM lineitem GROUP BY l_returnflag, l_linestatus"
		case "topn":
			sql = "SELECT l_orderkey, l_linenumber, l_extendedprice FROM lineitem ORDER BY l_extendedprice DESC LIMIT 10"
		case "limit":
			sql = "SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 45 LIMIT 10"
		case "like":
			sql = "SELECT COUNT(*) FROM orders WHERE o_comment LIKE '%regular%'"
		case "range":
			sql = fmt.Sprintf("SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem WHERE l_orderkey BETWEEN %d AND %d", d.rangeLo, d.rangeLo+99)
		case "insub":
			sql = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 9000)"
		default:
			q, err := tpch.QueryByID(tc, tpchID(label))
			if err != nil {
				return nil, err
			}
			sql = q.SQL
		}
		d.queries = append(d.queries, sql)
	}
	return d, nil
}

// pass builds the ops of one pass: the ten queries once each.
func (d *olapData) pass(prov bool) []op {
	ops := make([]op, len(d.queries))
	for i, sql := range d.queries {
		class := olapQueries[i]
		if prov {
			sql = strings.Replace(sql, "SELECT ", "SELECT PROVENANCE ", 1)
			class += provSuffix
		}
		ops[i] = op{kind: kText, class: class, sql: []string{sql}, stmts: 1}
	}
	return ops
}

// olapChecker verifies each result: digests must be identical across passes
// and — PROVENANCE adds lineage, not rows — between the plain and the
// PROVENANCE variant of a query; a few results are also checked against what
// the benchmark knows about the data.
type olapChecker struct {
	d      *olapData
	digest map[string]uint64
	rows   map[string]int
}

func (c *olapChecker) check(o *op, _ int, res *engine.Result) string {
	label, prov := strings.CutSuffix(o.class, provSuffix)
	if prov && len(res.Rows) > 0 && len(res.Lineage) != len(res.Rows) {
		return fmt.Sprintf("%s: %d rows but %d lineage entries", o.class, len(res.Rows), len(res.Lineage))
	}
	switch label {
	case "limit":
		// LIMIT without ORDER BY may return any ten qualifying rows.
		if len(res.Rows) != 10 {
			return fmt.Sprintf("%s: %d rows, want 10", o.class, len(res.Rows))
		}
		for _, row := range res.Rows {
			if q, _ := row[1].AsFloat(); q <= 45 {
				return fmt.Sprintf("%s: row with l_quantity %v", o.class, row[1])
			}
		}
		return ""
	case "groupby":
		var n int64
		for _, row := range res.Rows {
			n += row[2].Int()
		}
		if int(n) != c.d.lineitem {
			return fmt.Sprintf("%s: groups cover %d rows, lineitem has %d", o.class, n, c.d.lineitem)
		}
	case "range":
		for _, row := range res.Rows {
			if k := int(row[0].Int()); k < c.d.rangeLo || k > c.d.rangeLo+99 {
				return fmt.Sprintf("%s: key %d outside the range", o.class, k)
			}
		}
	}
	sum := rowsChecksum(res)
	if want, seen := c.digest[label]; !seen {
		c.digest[label], c.rows[label] = sum, len(res.Rows)
	} else if want != sum || c.rows[label] != len(res.Rows) {
		return fmt.Sprintf("%s: result digest %016x (%d rows) differs from the first pass's %016x (%d rows)", o.class, sum, len(res.Rows), want, c.rows[label])
	}
	return ""
}

func runOLAP(cfg config) (*result, error) {
	sz := olapSizing(cfg.tiny)
	res := newResult(cfg, 1, fmt.Sprintf("in-process server over net.Pipe, text protocol, static TPC-H SF %g, no writes", sz.sf))
	tc := tpch.Config{SF: sz.sf, Seed: cfg.seed}

	var d *olapData
	setups := make([]float64, cfg.setupReps())
	for i := range setups {
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = newOLAPData(tc); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	chk := &olapChecker{d: d, digest: map[string]uint64{}, rows: map[string]int{}}
	plain, prov := d.pass(false), d.pass(true)

	if cfg.traced {
		return res, runOLAPTraced(cfg, res, d, chk, plain, prov)
	}
	res.set("setup_s", overRounds(setups, "s", 1))

	cc, err := dialClient(d.t, d.t, "bench:0")
	if err != nil {
		return nil, err
	}
	runPass := func(ops []op) float64 {
		runtime.GC()
		t0 := time.Now()
		for i := range ops {
			if why := cc.exec(&ops[i], chk.check); why != "" {
				res.fail("%s: %s", ops[i].class, why)
			}
		}
		res.attempt(len(ops))
		return ms(time.Since(t0))
	}
	var plainMS, provMS []float64
	cfg.rounds(sz.minRounds, func(i int) bool {
		a, b := runPass(plain), runPass(prov)
		if i >= 0 {
			plainMS, provMS = append(plainMS, a), append(provMS, b)
		}
		return res.Failed == 0
	})
	cc.conn.Close()
	d.t.conns.Wait()
	res.set("pass_ms", overRounds(plainMS, "ms", len(plain)))
	res.set("pass_prov_ms", overRounds(provMS, "ms", len(prov)))
	res.primary = res.Metrics["pass_ms"].Value
	return res, nil
}

// runOLAPTraced sends two pairs of passes down every depth. The data is
// static, so all depths share the one database.
func runOLAPTraced(cfg config, res *result, d *olapData, chk *olapChecker, plain, prov []op) error {
	pairs := 2
	if cfg.tiny {
		pairs = 1
	}
	var ops []op
	for i := 0; i < pairs; i++ {
		ops = append(ops, plain...)
		ops = append(ops, prov...)
	}
	var before, after *obs.Snapshot
	mk := func(depth int) (*target, error) {
		if depth == 1 {
			before = obs.TakeSnapshot()
		}
		return d.t, nil
	}
	hooks := layerHooks{depthDone: func(depth int, _ *target) {
		if depth == 1 {
			after = obs.TakeSnapshot()
		}
	}}
	ls, err := runLayers(cfg.rec, ops, mk, chk.check, hooks)
	if err != nil {
		return err
	}
	res.attempt(3 * ls.stmts)
	for _, f := range ls.failures {
		res.fail("%s", f)
	}
	ls.report(res)

	var plainSum, provSum float64
	for _, q := range olapQueries {
		res.set("engine.q_ms."+q, single(median(ls.sessionByClass[q])/1000, "ms"))
		res.set("engine.q_prov_ms."+q, single(median(ls.sessionByClass[q+provSuffix])/1000, "ms"))
		plainSum += median(ls.clientByClass[q])
		provSum += median(ls.clientByClass[q+provSuffix])
	}
	res.primary = plainSum / 1000 // a plain pass over the wire, in ms
	res.set("engine.lineage_premium_ratio", single(ratio(provSum, plainSum), "ratio"))
	dl := obsDelta{before, after, res}
	res.set("engine.rows_scanned_per_row_returned", single(ratio(dl.counter("engine.rows_scanned"), dl.counter("engine.rows_returned")), "ratio"))
	ix, full := dl.counter("plan.index_scans"), dl.counter("plan.full_scans")
	res.set("plan.index_scan_ratio", single(ratio(ix, ix+full), "ratio"))
	return nil
}
