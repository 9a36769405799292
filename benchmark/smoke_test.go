package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs all four workloads, untraced and traced, at -scale tiny and
// holds the output to the contract: exactly the catalogued metrics with their
// units, well-formed names, no failed operation, shares that add up, and a
// span file on disk.
func TestSmoke(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	outDir := t.TempDir()
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, w := range workloads {
			cfg := config{workload: w.Name, seed: 42, seconds: 0.2, traced: traced, tiny: true}
			res, err := runOne(cfg, outDir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted=%d failed=%d correct=%v: %v", w.Name, traced, res.Attempted, res.Failed, res.Correct, res.Failures)
			}
			if len(res.Missing) > 0 {
				t.Errorf("%s traced=%v: obs counters not found: %v", w.Name, traced, res.Missing)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, catalog has %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q is malformed", d.Name)
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, catalog says %q", w.Name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s is %v", w.Name, d.Name, m.Value)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
			if traced && !strings.HasPrefix(w.Name, "ldv_") {
				sum := 0.0
				for _, layer := range shareLayers {
					sum += res.Metrics["share."+layer].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: share.* sums to %v", w.Name, sum)
				}
			}
			var out bytes.Buffer
			res.print(&out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if last := lines[len(lines)-1]; !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
				t.Errorf("%s: last output line is not the result object: %.80s", w.Name, last)
			}
		}
	}
	if fi, err := os.Stat(filepath.Join(outDir, "trace.json")); err != nil || fi.Size() < 100 {
		t.Errorf("trace.json not written: %v", err)
	}
}

// TestManifest keeps BENCHMARK.json in step with the catalog it is generated
// from (`go run ./benchmark -manifest > BENCHMARK.json`).
func TestManifest(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifest()) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`")
	}
	if len(endToEnd) != 14 || len(perLayer) != 118 || len(workloads) != 4 {
		t.Errorf("catalog has %d end-to-end, %d per-layer metrics, %d workloads", len(endToEnd), len(perLayer), len(workloads))
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
}

// TestCompare checks the verdicts of -compare on synthetic sets.
func TestCompare(t *testing.T) {
	set := func(passMS ...float64) *resultFile {
		f := &resultFile{}
		for _, v := range passMS {
			f.Runs = append(f.Runs, &result{Workload: "sql_olap", Attempted: 10, Metrics: map[string]metric{
				"setup_s": single(1, "s"), "pass_ms": single(v, "ms"),
			}})
		}
		return f
	}
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "pass_ms" {
			bound = d.Bound
		}
	}
	var out bytes.Buffer
	if got := compareSets(&out, set(100, 101, 102), set(101, 102, 103)); got != 0 {
		t.Errorf("sets that agree: exit %d\n%s", got, out.String())
	}
	worseBy := 100 * (1 + 2*bound)
	if got := compareSets(&out, set(100, 101, 102), set(worseBy, worseBy+1, worseBy+2)); got != 1 {
		t.Errorf("twice the bound worse: exit %d", got)
	}
	out.Reset()
	wide := 100 * 4 * bound // quartiles this far apart around 100: spread 2 × bound
	if got := compareSets(&out, set(100-wide, 100, 100+wide), set(101-wide, 101, 101+wide)); got != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("wide spread should be unresolved, exit %d\n%s", got, out.String())
	}
	worse := set(100, 101, 102)
	worse.Runs[0].Failed = 1
	if got := compareSets(&out, set(100, 101, 102), worse); got != 1 {
		t.Errorf("a higher failed share: exit %d", got)
	}
}
