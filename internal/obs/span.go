package obs

import "time"

func init() {
	DescribePrefix("span.", "Span duration by span name")
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one in-flight timed operation. Spans nest explicitly — a child
// created with Child carries its parent's ID — so a snapshot reconstructs
// the hierarchy without goroutine-local context plumbing. Every span belongs
// to a trace: StartSpan originates a fresh 128-bit TraceID, Child inherits
// its parent's, and StartSpanIn joins a trace whose context arrived over the
// wire. End records the finished span into the `span.<name>` latency
// histogram and into the flight recorder (which seals the trace once its
// entry span has ended and no local spans remain in flight — see the flight
// recorder's doc comment).
//
// All methods are safe on a nil *Span and do nothing, so instrumented code
// can thread an optional parent span without nil checks at every call site.
type Span struct {
	reg    *Registry
	trace  TraceID
	id     uint64
	parent uint64
	// entry marks a span whose parent is not a local span: it originated
	// the trace (StartSpan) or joined it from a wire context (StartSpanIn).
	// Its End makes the trace eligible to seal into a TraceRecord.
	entry    bool
	name     string
	start    time.Time
	startTck uint64
	attrs    []Attr
	ended    bool
}

// StartSpan begins a root span, originating a new trace.
func (r *Registry) StartSpan(name string) *Span {
	s := &Span{
		reg:      r,
		trace:    NewTraceID(),
		id:       r.nextSpanID.Add(1),
		entry:    true,
		name:     name,
		start:    time.Now(),
		startTck: r.logicalNow(),
	}
	r.flight.begin(s.trace)
	return s
}

// StartSpan begins a root span in the default registry.
func StartSpan(name string) *Span { return defaultRegistry.StartSpan(name) }

// StartSpanIn begins a span that joins an existing trace — the server side
// of wire-level context propagation. A zero context degrades to StartSpan
// (the span originates a trace of its own).
func (r *Registry) StartSpanIn(name string, sc SpanContext) *Span {
	if sc.IsZero() {
		return r.StartSpan(name)
	}
	s := &Span{
		reg:      r,
		trace:    sc.Trace,
		id:       r.nextSpanID.Add(1),
		parent:   sc.Span,
		entry:    true,
		name:     name,
		start:    time.Now(),
		startTck: r.logicalNow(),
	}
	r.flight.begin(s.trace)
	return s
}

// StartSpanIn begins a trace-joining span in the default registry.
func StartSpanIn(name string, sc SpanContext) *Span {
	return defaultRegistry.StartSpanIn(name, sc)
}

// Child begins a nested span in the same trace. Returns nil when s is nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		reg:      s.reg,
		trace:    s.trace,
		id:       s.reg.nextSpanID.Add(1),
		parent:   s.id,
		name:     name,
		start:    time.Now(),
		startTck: s.reg.logicalNow(),
	}
	s.reg.flight.begin(c.trace)
	return c
}

// ID returns the span's identity (unique within its registry; 0 for nil).
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// TraceID returns the trace the span belongs to (zero for nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// Context returns the span's portable identity for wire propagation (zero
// for nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.id}
}

// SetAttr attaches a key/value annotation.
func (s *Span) SetAttr(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// End finishes the span, records it, and returns its wall duration. A
// second End (and End on a nil span) is a no-op returning zero, so
// `defer sp.End()` composes with early explicit ends and optional tracing.
func (s *Span) End() time.Duration {
	if s == nil || s.ended {
		return 0
	}
	s.ended = true
	d := time.Since(s.start)
	rec := SpanRecord{
		ID:         s.id,
		Parent:     s.parent,
		Trace:      s.trace,
		Name:       s.name,
		StartUnix:  s.start.UnixNano(),
		DurationNS: int64(d),
		StartTick:  s.startTck,
		EndTick:    s.reg.logicalNow(),
		Attrs:      s.attrs,
	}
	s.reg.flight.observe(s.trace, rec, s.entry)
	s.reg.Histogram("span." + s.name).Observe(d)
	return d
}

// SpanRecord is one finished span as the flight recorder keeps it.
type SpanRecord struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Trace  TraceID `json:"trace"`
	Name   string  `json:"name"`
	// StartUnix/DurationNS place the span on the wall clock.
	StartUnix  int64 `json:"start_unix_ns"`
	DurationNS int64 `json:"duration_ns"`
	// StartTick/EndTick are osim logical-clock stamps (0 when no logical
	// clock is attached to the registry).
	StartTick uint64 `json:"start_tick,omitempty"`
	EndTick   uint64 `json:"end_tick,omitempty"`
	Attrs     []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named annotation ("" when absent).
func (r SpanRecord) Attr(key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
