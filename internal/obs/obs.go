// Package obs is the LDV observability layer: a stdlib-only, lock-cheap
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms) plus lightweight hierarchical spans, each recorded into a
// per-name duration histogram. Every hot path of the system — engine statement
// execution, wire-protocol framing, server sessions, the audit monitor, and
// the packagers — reports here, and snapshots export as JSON (served over
// the wire protocol as a Stats request) or as a human-readable table.
//
// Spans carry 128-bit trace IDs (TraceID/SpanContext) that propagate across
// the wire protocol, so one client request forms a single causal tree —
// client, server, engine, WAL — reconstructed by the flight recorder: a
// bounded ring of completed traces (TraceRecord) queryable over the wire
// Stats extension and the ops endpoint, and renderable as an ASCII
// waterfall.
//
// The paper's evaluation (§VIII/§IX) is an exercise in cost attribution:
// audit-time overhead vs. native execution, package size, replay time. This
// package is the measurement substrate for that attribution: the Metric*NS
// histograms the engine and auditor record are what the benchmark's §IX-B
// breakdown (ldv.* metrics of the ldv_app workload) reads.
//
// Metric updates after handle creation are single atomic operations, so
// instrumented code may keep package-level handles (see GetCounter) and
// record from any goroutine without locks.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n and returns the new value, so a counter
// can double as an id allocator (e.g. server session ids).
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

func (g *Gauge) reset() { g.v.Store(0) }

// Registry holds named metrics and the flight recorder. Metric handles are
// created once under a mutex and updated thereafter with atomics only.
// The zero value is not usable; call NewRegistry or use Default.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	flight *flightRecorder
	stmts  *StatementStats

	// nextSpanID allocates span identities; logicalClock, when set, stamps
	// spans with the osim logical clock in addition to wall time.
	nextSpanID   atomic.Uint64
	logicalClock atomic.Value // func() uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		flight:   newFlightRecorder(DefaultTraceCapacity),
		stmts:    newStatementStats(),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry all built-in instrumentation
// reports to.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}

// SetLogicalClock supplies the osim logical clock; subsequent spans carry
// logical begin/end ticks alongside wall time. Pass nil to clear.
func (r *Registry) SetLogicalClock(now func() uint64) {
	if now == nil {
		now = func() uint64 { return 0 }
	}
	r.logicalClock.Store(now)
}

func (r *Registry) logicalNow() uint64 {
	if f, ok := r.logicalClock.Load().(func() uint64); ok {
		return f()
	}
	return 0
}

// Reset zeroes every metric and clears the flight recorder. Existing handles
// stay valid — callers holding a *Counter keep recording into the same metric.
// The benchmark harness resets between the native and audited runs so the
// overhead report attributes costs to exactly one run.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.flight.reset()
	r.stmts.reset()
}

// GetCounter returns a named counter in the default registry (handle
// pattern: `var mStmts = obs.GetCounter("engine.stmts")`).
func GetCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// GetGauge returns a named gauge in the default registry.
func GetGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// GetHistogram returns a named histogram in the default registry.
func GetHistogram(name string) *Histogram { return defaultRegistry.Histogram(name) }

// Reset zeroes the default registry and clears the ASH sample ring.
func Reset() {
	defaultRegistry.Reset()
	defaultASH.reset()
}
