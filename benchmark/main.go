// Command benchmark is the repository's benchmark: four named workloads,
// fourteen bounded end-to-end metrics (and two p99s without a bound) measured
// with tracing off, and a traced run that
// times the calls into each layer's public functions from out here and
// attributes every end-to-end total to the layers (client, server, wire,
// sqlparse, plan, engine, osim, ldv, prov, deps, pack).
//
//	go run ./benchmark                          # all workloads, untraced then traced
//	go run ./benchmark -workload wire_oltp -trace 0 -seed 7 -seconds 28
//	go run ./benchmark -runs 10 -o A.json       # a set of runs, for -compare
//	go run ./benchmark -compare A.json B.json   # do two sets agree within the bounds?
//	go run ./benchmark -manifest                # BENCHMARK.json, generated
//
// Every run prints each metric by name with its unit and ends with one JSON
// line {correct, attempted, failed, metrics}. README.md in this directory
// describes the workloads, the metrics and how they are expected to interact.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "all", "one of "+workloadNames()+", or all")
		seed     = flag.Uint64("seed", 42, "drives the generated data and every key/op stream")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run's timed rounds last")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; -1: both")
		scale    = flag.String("scale", "full", "full, or tiny (smoke test only, not a reportable run)")
		runs     = flag.Int("runs", 1, "repeat everything this many times with seeds seed, seed+1, …")
		out      = flag.String("o", "", "also write every run's result to this JSON file")
		outDir   = flag.String("out", "benchmark/out", "directory for trace.json")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		showMan  = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *showMan {
		os.Stdout.Write(manifest())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments: %v", flag.Args())
	}
	if *scale != "full" && *scale != "tiny" {
		fatal("unknown scale %q", *scale)
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 || *runs < 1 {
		fatal("bad -seconds, -trace or -runs")
	}

	// The reference box has 2 cores; never use more than 4, never more
	// client connections than processors (wire_oltp uses one, see oltp.go).
	if runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}

	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		fatal("unknown workload %q (want %s, or all)", *workload, workloadNames())
	}
	var results []*result
	for r := 0; r < *runs; r++ {
		for _, traced := range []bool{false, true} {
			if (*trace == 0 && traced) || (*trace == 1 && !traced) {
				continue
			}
			for _, name := range names {
				cfg := config{workload: name, seed: *seed + uint64(r), seconds: *seconds, traced: traced, tiny: *scale == "tiny"}
				res, err := runOne(cfg, *outDir)
				if err != nil {
					fatal("%s: %v", name, err)
				}
				res.print(os.Stdout)
				results = append(results, res)
			}
		}
	}
	if *out != "" {
		if err := writeResults(*out, results); err != nil {
			fatal("%v", err)
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func runWorkload(cfg config) (*result, error) {
	switch cfg.workload {
	case "ldv_app", "ldv_wide":
		return runLDV(cfg)
	case "wire_oltp":
		return runOLTP(cfg)
	case "sql_olap":
		return runOLAP(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// runOne performs one run. An untraced run is the workload as is. A traced
// run first repeats a short untraced slice with one client — the reference
// the tracing overhead is measured against, and where the runtime's memory
// counters are read — then the traced slice, and writes the spans out.
func runOne(cfg config, outDir string) (*result, error) {
	if !cfg.traced {
		res, err := runWorkload(cfg)
		if err == nil {
			res.finish()
		}
		return res, err
	}
	ref := cfg
	ref.traced, ref.oneClient, ref.seconds = false, true, cfg.seconds*0.3
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	stopPeak := watchHeapPeak()
	refRes, err := runWorkload(ref)
	peak := stopPeak()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)

	cfg.rec = newRecorder()
	cfg.seconds *= 0.5
	res, err := runWorkload(cfg)
	if err != nil {
		return nil, err
	}
	ops := float64(refRes.Attempted)
	res.set("proc.alloc_bytes_per_op", single(ratio(float64(m1.TotalAlloc-m0.TotalAlloc), ops), "bytes"))
	res.set("proc.allocs_per_op", single(ratio(float64(m1.Mallocs-m0.Mallocs), ops), "count"))
	res.set("proc.gc_pause_ms", single(float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms"))
	res.set("proc.heap_peak_mb", single(float64(peak)/(1<<20), "MB"))
	res.set("obs.trace_overhead_pct", single(100*ratio(res.primary-refRes.primary, refRes.primary), "%"))
	for name, m := range refRes.Demoted {
		res.set(name, m)
	}
	res.Attempted += refRes.Attempted
	res.Failed += refRes.Failed
	res.Failures = append(res.Failures, refRes.Failures...)
	res.finish()
	if err := cfg.rec.write(filepath.Join(outDir, "trace.json")); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return res, nil
}

// watchHeapPeak samples the bytes held by heap objects (live and not yet
// swept) every 10 ms until the returned function is called, which reports the
// largest sample.
func watchHeapPeak() (stop func() uint64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	done := make(chan struct{})
	result := make(chan uint64)
	go func() {
		var peak uint64
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			select {
			case <-done:
				result <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-result
	}
}

// resultFile is what -o writes and -compare reads: every run of a set.
type resultFile struct {
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Runs       []*result `json:"runs"`
}

func writeResults(path string, results []*result) error {
	b, err := json.MarshalIndent(resultFile{runtime.Version(), runtime.GOMAXPROCS(0), results}, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
