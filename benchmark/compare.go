package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles is `-compare A.json B.json`: for every workload and every
// end-to-end metric it prints both sets' median and quartiles over their
// runs, by how much B's median is worse, and the bound. B worse than A by more
// than the bound is a breach. Otherwise a metric whose run-to-run spread (the
// distance between the quartiles, as a share of the median) exceeds its bound
// on either side is unresolved, not unchanged — unless every run of B reads
// better than every run of A. The exit status is non-zero on a breach or when
// B has a higher share of failed operations.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResults(pathB); err == nil {
			return compareSets(w, a, b)
		}
	}
	fmt.Fprintf(w, "compare: %v\n", err)
	return 2
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// setStats is one side of one comparison row.
type setStats struct {
	values         []float64
	median, q1, q3 float64
}

func (s setStats) spread() float64 { return ratio(s.q3-s.q1, s.median) }

func collect(f *resultFile, workload, name string) (s setStats, attempted, failed int64) {
	for _, r := range f.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		attempted += r.Attempted
		failed += r.Failed
		if m, ok := r.Metrics[name]; ok {
			s.values = append(s.values, m.Value)
		} else if m, ok := r.Demoted[name]; ok {
			s.values = append(s.values, m.Value)
		}
	}
	sorted := sortedCopy(s.values)
	s.median = quantile(sorted, 0.5)
	s.q1, s.q3 = exclusiveQuartile(sorted, 1), exclusiveQuartile(sorted, 3)
	return s, attempted, failed
}

// exclusiveQuartile is the i-th quartile as Python's
// statistics.quantiles(values, n=4) computes it (the "exclusive" method the
// driver judges spreads with; it reaches further into the tails of a small
// sample than plain interpolation does).
func exclusiveQuartile(sorted []float64, i int) float64 {
	n := len(sorted)
	if n < 2 {
		return quantile(sorted, 0.5)
	}
	j := i * (n + 1) / 4
	delta := i*(n+1) - j*4
	if j < 1 {
		j, delta = 1, 0
	}
	if j > n-1 {
		j, delta = n-1, 4
	}
	return (sorted[j-1]*float64(4-delta) + sorted[j]*float64(delta)) / 4
}

func compareSets(w io.Writer, a, b *resultFile) int {
	status := 0
	for _, wl := range workloads {
		_, attA, failA := collect(a, wl.Name, "setup_s")
		_, attB, failB := collect(b, wl.Name, "setup_s")
		if attA == 0 || attB == 0 {
			continue // the workload is not in both sets
		}
		fmt.Fprintf(w, "== %s: failed %d/%d vs %d/%d\n", wl.Name, failA, attA, failB, attB)
		if ratio(float64(failB), float64(attB)) > ratio(float64(failA), float64(attA)) {
			fmt.Fprintf(w, "   BREACH: B has a higher share of failed operations\n")
			status = 1
		}
		fmt.Fprintf(w, "%-14s %-6s %14s %14s %14s | %14s %14s %14s | %8s %6s  %s\n",
			"metric", "unit", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "worse", "bound", "verdict")
		for _, d := range endToEnd {
			sa, _, _ := collect(a, wl.Name, d.Name)
			sb, _, _ := collect(b, wl.Name, d.Name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			// worse > 0 means B is worse than A, as a share of A's median.
			worse := ratio(sb.median-sa.median, sa.median)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case allBetter(sa.values, sb.values, d.Better):
				verdict = "better in every run"
			case worse > d.Bound:
				verdict = "BREACH"
				status = 1
			case sa.spread() > d.Bound || sb.spread() > d.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*sa.spread(), 100*sb.spread())
			}
			fmt.Fprintf(w, "%-14s %-6s %14.4f %14.4f %14.4f | %14.4f %14.4f %14.4f | %+7.2f%% %5.0f%%  %s\n",
				d.Name, d.Unit, sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, 100*worse, 100*d.Bound, verdict)
		}
		for _, name := range demoted {
			sa, _, _ := collect(a, wl.Name, name)
			sb, _, _ := collect(b, wl.Name, name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-14s %-6s %14.4f %14.4f %14.4f | %14.4f %14.4f %14.4f | %+7.2f%%     -  no bound (spread %.1f%% / %.1f%%)\n",
				name, "us", sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, 100*ratio(sb.median-sa.median, sa.median), 100*sa.spread(), 100*sb.spread())
		}
	}
	return status
}

// allBetter reports whether every run of b reads strictly better than every
// run of a.
func allBetter(a, b []float64, better string) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
