package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Snapshot is an exportable point-in-time view of a registry. It marshals
// to JSON (the payload of the wire-protocol Stats reply) and renders as a
// human-readable table.
type Snapshot struct {
	TakenUnix  int64                        `json:"taken_unix_ns"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		TakenUnix:  time.Now().UnixNano(),
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()
	for n, c := range counters {
		s.Counters[n] = c.Load()
	}
	for n, g := range gauges {
		s.Gauges[n] = g.Load()
	}
	for n, h := range hists {
		s.Histograms[n] = h.snapshot()
	}
	return s
}

// TakeSnapshot captures the default registry.
func TakeSnapshot() *Snapshot { return defaultRegistry.Snapshot() }

// JSON serializes the snapshot.
func (s *Snapshot) JSON() ([]byte, error) { return json.Marshal(s) }

// Counter returns a counter's value (0 when absent) — test convenience.
func (s *Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns a gauge's value (0 when absent).
func (s *Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Histogram returns a histogram's snapshot (zero value when absent).
func (s *Snapshot) Histogram(name string) HistogramSnapshot { return s.Histograms[name] }

// HistogramSumNS returns a latency histogram's total as a duration.
func (s *Snapshot) HistogramSumNS(name string) time.Duration {
	return time.Duration(s.Histograms[name].Sum)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtNS renders nanoseconds compactly for the table output.
func fmtNS(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond / 10).String()
}

// WriteTable renders the snapshot as a human-readable report: counters and
// gauges sorted by name, and histograms (spans among them, as
// `span.<name>`) with count/mean/p50/p95/max/total.
func (s *Snapshot) WriteTable(w io.Writer) {
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "-- counters --")
		for _, n := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "%-44s %12d\n", n, s.Counters[n])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "-- gauges --")
		for _, n := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "%-44s %12d\n", n, s.Gauges[n])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "-- histograms (ns unless noted) --")
		fmt.Fprintf(w, "%-44s %10s %12s %12s %12s %12s %14s\n",
			"name", "count", "mean", "p50", "p95", "max", "total")
		for _, n := range sortedKeys(s.Histograms) {
			h := s.Histograms[n]
			fmt.Fprintf(w, "%-44s %10d %12s %12s %12s %12s %14s\n",
				n, h.Count, fmtNS(int64(h.Mean())), fmtNS(h.Quantile(0.50)),
				fmtNS(h.Quantile(0.95)), fmtNS(h.Max), fmtNS(h.Sum))
		}
	}
}
