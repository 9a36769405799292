package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// config is what one run of one workload is asked to do.
type config struct {
	workload  string
	seed      uint64
	seconds   float64 // how long the timed rounds may take in total
	traced    bool
	tiny      bool      // -scale tiny: smoke-test sizes, not a reportable run
	oneClient bool      // the traced run's untraced reference slice: one connection
	rec       *recorder // nil unless traced
}

// setupReps is how many times a run sets up: several for an untraced run,
// whose setup_s is their median; once where set-up time is not reported.
func (c config) setupReps() int {
	if c.traced || c.oneClient {
		return 1
	}
	return setupReps
}

// rounds drives a workload's round loop: one discarded warm-up round (index
// -1; none at tiny scale), then timed rounds 0, 1, … — at least min of them
// (three in a traced run and its reference slice), then for as long as
// another one fits the time budget. A round that returns false ends the loop.
func (c config) rounds(min int, round func(i int) bool) {
	if (c.traced || c.oneClient) && min > 3 {
		min = 3
	}
	first := -1
	if c.tiny {
		first = 0
	}
	var start time.Time
	for i := first; ; i++ {
		if i == 0 {
			start = time.Now()
		}
		if i >= min && i > 0 {
			elapsed := time.Since(start).Seconds()
			if elapsed+elapsed/float64(i) > c.seconds {
				return
			}
		}
		if !round(i) {
			return
		}
	}
}

// result is everything one run reports. Metrics holds either the end-to-end
// set (untraced) or the per-layer set (traced), never a mix.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Scale     string            `json:"scale"`
	Clients   int               `json:"clients"`
	Load      string            `json:"load"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Correct   bool              `json:"correct"`
	Failures  []string          `json:"failures,omitempty"`
	Missing   []string          `json:"missing_counters,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Demoted holds the end-to-end metrics that carry no bound (metrics.go);
	// an untraced run prints them but keeps them out of the contract's line.
	Demoted map[string]metric `json:"demoted,omitempty"`

	// primary is the workload's headline time (lower is better), which a
	// traced run and its untraced reference slice both report so the tracing
	// overhead can be computed.
	primary float64
	mu      sync.Mutex
}

func newResult(cfg config, clients int, load string) *result {
	scale := "full"
	if cfg.tiny {
		scale = "tiny"
	}
	return &result{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, Scale: scale,
		Clients: clients, Load: load, Metrics: map[string]metric{},
	}
}

// attempt counts n operations (statements or output checks) as tried.
func (r *result) attempt(n int) {
	r.mu.Lock()
	r.Attempted += int64(n)
	r.mu.Unlock()
}

// fail counts one operation as failed: an error, a refused statement and a
// failed output check all land here. Only the first few messages are kept.
func (r *result) fail(format string, args ...any) {
	r.mu.Lock()
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *result) set(name string, m metric) { r.Metrics[name] = m }

// missing notes an obs counter the run looked for and did not find.
func (r *result) missing(name string) {
	for _, m := range r.Missing {
		if m == name {
			return
		}
	}
	r.Missing = append(r.Missing, name)
}

// finish fills in what the contract wants for every run: each catalogued
// metric of the run's kind is present. An end-to-end metric the workload does
// not define reports the calibration probe (never 0, never product code); a
// per-layer metric it does not define reports 0.
func (r *result) finish() {
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if r.Traced {
		for _, d := range perLayer {
			if _, ok := r.Metrics[d.Name]; !ok {
				r.Metrics[d.Name] = single(0, d.Unit)
			}
		}
		return
	}
	var cal time.Duration
	for _, d := range endToEnd {
		if _, ok := r.Metrics[d.Name]; ok {
			continue
		}
		if cal == 0 {
			reps := 151
			if r.Scale == "tiny" {
				reps = 11
			}
			cal = calibrate(reps)
		}
		var v float64
		switch d.Unit {
		case "ms":
			v = ms(cal)
		case "us":
			v = us(cal)
		case "ops/s":
			v = 1 / cal.Seconds()
		case "bytes":
			v = calibrationBytes
		default:
			panic("benchmark: no calibration value for unit " + d.Unit)
		}
		r.Metrics[d.Name] = single(v, d.Unit)
	}
}

// print writes every metric by name with its unit, then — as the last line —
// the one JSON object the driver reads.
func (r *result) print(w io.Writer) {
	kind := "end-to-end (untraced)"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed=%d scale=%s %s: %d closed-loop client(s); %s\n", r.Workload, r.Seed, r.Scale, kind, r.Clients, r.Load)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-42s %16.4f %-7s q1=%.4f q3=%.4f rounds=%d samples=%d\n", n, m.Value, m.Unit, m.Q1, m.Q3, m.Rounds, m.Samples)
	}
	for _, n := range demoted {
		if m, ok := r.Demoted[n]; ok {
			fmt.Fprintf(w, "%-42s %16.4f %-7s q1=%.4f q3=%.4f rounds=%d samples=%d (no bound)\n", n, m.Value, m.Unit, m.Q1, m.Q3, m.Rounds, m.Samples)
		}
	}
	fmt.Fprintf(w, "ops attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	for _, c := range r.Missing {
		fmt.Fprintf(w, "missing obs counter (reads as null): %s\n", c)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for n, m := range r.Metrics {
		line.Metrics[n] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only NaN/Inf can do this, and that is a benchmark bug
	}
	fmt.Fprintf(w, "%s\n", b)
}
