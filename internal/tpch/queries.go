package tpch

import (
	"fmt"
	"math"
	"strings"
)

// Query is one Table II variant: Qf-v with its PARAM substituted and its
// target selectivity.
type Query struct {
	// ID is the paper's label, e.g. "Q1-3".
	ID string
	// Family is 1–4, Variant is 1-based within the family.
	Family, Variant int
	// SQL is the executable text with PARAM substituted.
	SQL string
	// Prepared is the same statement with PARAM as its one `?` placeholder,
	// and Arg the value to bind there.
	Prepared string
	Arg      any
	// Param is the substituted parameter, as the paper's Table II prints it.
	Param string
	// Selectivity is the fraction of the probed table(s) the query touches
	// (the paper's Sel. column).
	Selectivity float64
}

// Queries builds the 18 Table II variants for a scale factor. Family 1 and
// 4 vary l_suppkey BETWEEN 1 AND PARAM with PARAM chosen as 1/2/5/10/25% of
// the supplier count (the paper's 10/20/50/100/250 at SF 1). Families 2 and
// 3 vary the number of zeros in c_name LIKE '%0…0%'; with TPC-H's 9-digit
// customer-name padding the number of matching customers is 10^(9-z), so
// the zero counts are recomputed from the customer cardinality to hit the
// paper's 66% / 6.6% / 0.66% / 0.06% ladder at any scale.
func Queries(cfg Config) []Query {
	cnt := cfg.Counts()
	var out []Query

	add := func(family, variant int, param string, sel float64, prepared string, arg any, literal string) {
		out = append(out, Query{
			ID: fmt.Sprintf("Q%d-%d", family, variant), Family: family, Variant: variant,
			Param: param, Selectivity: sel,
			SQL: strings.Replace(prepared, "?", literal, 1), Prepared: prepared, Arg: arg,
		})
	}
	suppkey := func(family int, prepared string) {
		for v, pct := range []float64{0.01, 0.02, 0.05, 0.10, 0.25} {
			param := max(int(math.Ceil(pct*float64(cnt.Supplier))), 1)
			lit := fmt.Sprint(param)
			add(family, v+1, lit, float64(param)/float64(cnt.Supplier), prepared, param, lit)
		}
	}
	zeros := func(family int, prepared string) {
		for v, z := range zeroParams(cnt.Customer) {
			param := strings.Repeat("0", z.zeros)
			add(family, v+1, param, z.sel, prepared, "%"+param+"%", "'%"+param+"%'")
		}
	}
	suppkey(1, `SELECT l_quantity, l_partkey, l_extendedprice, l_shipdate, l_receiptdate `+
		`FROM lineitem WHERE l_suppkey BETWEEN 1 AND ?`)
	zeros(2, `SELECT o_comment, l_comment FROM lineitem l, orders o, customer c `+
		`WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey AND c.c_name LIKE ?`)
	zeros(3, `SELECT count(*) FROM lineitem l, orders o, customer c `+
		`WHERE l.l_orderkey = o.o_orderkey AND o.o_custkey = c.c_custkey AND c.c_name LIKE ?`)
	suppkey(4, `SELECT o_orderkey, AVG(l_quantity) AS avgq FROM lineitem l, orders o `+
		`WHERE l.l_orderkey = o.o_orderkey AND l_suppkey BETWEEN 1 AND ? GROUP BY o_orderkey`)
	return out
}

// QueryByID finds a variant, e.g. "Q1-1".
func QueryByID(cfg Config, id string) (Query, error) {
	for _, q := range Queries(cfg) {
		if q.ID == id {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("tpch: unknown query %q", id)
}

type zeroParam struct {
	zeros int
	sel   float64
}

// zeroParams picks four zero-run lengths whose '%0…0%' LIKE selectivities
// over 9-digit-padded names approximate 66%, 6.6%, 0.66%, 0.06% for the
// given customer count: a run of z zeros matches (roughly) the customers
// with custkey < 10^(9-z).
func zeroParams(customers int) []zeroParam {
	const width = 9
	// A run of z zeros (z <= width-1) matches the keys 1..10^(width-z)-1 —
	// those have at least z leading zeros. Longer runs match nothing, which
	// is where the paper's 0.06% rung lands at small scales.
	matches := func(z int) float64 {
		if z >= width {
			return 0
		}
		m := math.Pow(10, float64(width-z)) - 1
		if m > float64(customers) {
			m = float64(customers)
		}
		if m < 0 {
			m = 0
		}
		return m
	}
	// Start at the smallest z whose selectivity drops below 100% —
	// reproducing the paper's 66% top rung.
	out := make([]zeroParam, 0, 4)
	start := width - int(math.Floor(math.Log10(float64(customers))))
	for z := start; len(out) < 4; z++ {
		out = append(out, zeroParam{zeros: z, sel: matches(z) / float64(customers)})
	}
	return out
}
