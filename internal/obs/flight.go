package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"
)

// The flight recorder keeps the spans this process finished most recently
// and assembles them into request traces — each a causal tree of spans
// sharing one TraceID — only when read: over the wire protocol (Stats kind
// "traces") and the ops endpoint (GET /traces). Ending a span appends its
// record to one bounded ring; that is all a span costs the recorder. A
// trace is listed once one of its *entry* spans has ended — a span whose
// parent is not a local span: it originated the trace or joined it from a
// wire context. So a TCP server, which never sees the client's root end,
// lists its local view once its server.query entry span ends; in one
// process (net.Pipe, the simulated machine) client and server share a
// registry, and the client root, ending last, names the whole tree.
//
// No trace is shown with a part missing. Span ids are handed out in start
// order, and every local span of a trace starts after the trace's first
// entry span and (spans nesting) ends before it. The ring drops spans in
// the order they ended, so if it dropped a span of a trace whose entry span
// it still holds, that entry's id is at most lost, the highest id the ring
// has dropped, and the trace is left out.

// TraceRecord is one request trace: its entry span's identity plus every
// span of the trace the recorder holds, ordered by start time.
type TraceRecord struct {
	Trace TraceID `json:"trace"`
	// Root names the trace's last-ended entry span: the outermost one.
	Root       string `json:"root"`
	StartUnix  int64  `json:"start_unix_ns"`
	DurationNS int64  `json:"duration_ns"`
	// Spans holds the full tree, sorted by start time then span ID; parent
	// links (SpanRecord.Parent) reconstruct the hierarchy.
	Spans []SpanRecord `json:"spans"`
}

// Flight-recorder sizing: Traces lists at most DefaultTraceCapacity traces,
// assembled from the last spanCapacity finished spans.
const (
	DefaultTraceCapacity = 256
	spanCapacity         = 16 * DefaultTraceCapacity
)

// finishedSpan is one ring entry: the record plus whether the span was an
// entry span (one that lists its trace).
type finishedSpan struct {
	SpanRecord
	entry bool
}

type flightRecorder struct {
	mu    sync.Mutex
	spans ring[finishedSpan]
	lost  uint64 // the highest span id the ring has overwritten
}

func newFlightRecorder() *flightRecorder {
	return &flightRecorder{spans: ring[finishedSpan]{size: spanCapacity}}
}

// observe records one finished span.
func (f *flightRecorder) observe(rec SpanRecord, entry bool) {
	f.mu.Lock()
	if old := f.spans.add(finishedSpan{rec, entry}); old.ID > f.lost {
		f.lost = old.ID
	}
	f.mu.Unlock()
}

// traces assembles the held spans into at most DefaultTraceCapacity whole
// traces, newest first (newest by their last-ended entry span, because "the
// last N requests" is what an operator asks the flight recorder for).
func (f *flightRecorder) traces() []TraceRecord {
	f.mu.Lock()
	spans, lost := f.spans.all(), f.lost
	f.mu.Unlock()

	type assembly struct {
		rec    TraceRecord
		minID  uint64
		listed bool
	}
	byTrace := map[TraceID]*assembly{}
	var order []*assembly // by their last-ended entry span, newest first
	for i := len(spans) - 1; i >= 0; i-- {
		sp := &spans[i]
		a := byTrace[sp.Trace]
		if a == nil {
			a = &assembly{rec: TraceRecord{Trace: sp.Trace}, minID: sp.ID}
			byTrace[sp.Trace] = a
		}
		if sp.entry && !a.listed {
			a.listed = true
			a.rec.Root, a.rec.StartUnix, a.rec.DurationNS = sp.Name, sp.StartUnix, sp.DurationNS
			order = append(order, a)
		}
		a.rec.Spans = append(a.rec.Spans, sp.SpanRecord)
		a.minID = min(a.minID, sp.ID)
	}
	var out []TraceRecord
	for _, a := range order {
		if len(out) == DefaultTraceCapacity {
			break
		}
		if a.minID <= lost {
			continue
		}
		slices.SortFunc(a.rec.Spans, func(x, y SpanRecord) int {
			if c := cmp.Compare(x.StartUnix, y.StartUnix); c != 0 {
				return c
			}
			return cmp.Compare(x.ID, y.ID)
		})
		out = append(out, a.rec)
	}
	return out
}

func (f *flightRecorder) reset() {
	f.mu.Lock()
	f.spans.reset()
	f.lost = 0
	f.mu.Unlock()
}

// Traces returns the registry's whole request traces, newest first.
func (r *Registry) Traces() []TraceRecord { return r.flight.traces() }

// Traces returns the default registry's request traces, newest first.
func Traces() []TraceRecord { return defaultRegistry.Traces() }

// tracesDoc is the JSON envelope the ops endpoint's /traces handler serves.
type tracesDoc struct {
	Traces []TraceRecord `json:"traces"`
}

// MarshalTraces serializes completed traces for transport. An empty flight
// recorder encodes as an empty array, not null, so consumers can always
// iterate.
func MarshalTraces(traces []TraceRecord) ([]byte, error) {
	if traces == nil {
		traces = []TraceRecord{}
	}
	return json.Marshal(tracesDoc{Traces: traces})
}

// ParseTraces decodes the payload produced by MarshalTraces.
func ParseTraces(data []byte) ([]TraceRecord, error) {
	var doc tracesDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("obs: parse traces: %w", err)
	}
	return doc.Traces, nil
}

// waterfallWidth is the bar area of the ASCII waterfall, in characters.
const waterfallWidth = 40

// Waterfall renders the trace as an ASCII timeline: one row per span in
// tree order (children indented under their parent), each with a bar whose
// offset and length are proportional to the span's position inside the
// trace.
func (t *TraceRecord) Waterfall(w io.Writer) {
	if len(t.Spans) == 0 {
		fmt.Fprintf(w, "trace %s: no spans\n", t.Trace)
		return
	}
	t0 := t.Spans[0].StartUnix
	var end int64
	for _, sp := range t.Spans {
		if e := sp.StartUnix + sp.DurationNS; e > end {
			end = e
		}
		if sp.StartUnix < t0 {
			t0 = sp.StartUnix
		}
	}
	total := end - t0
	if total <= 0 {
		total = 1
	}
	fmt.Fprintf(w, "trace %s  root=%s  %s\n",
		t.Trace, t.Root, time.Duration(t.DurationNS))

	children := map[uint64][]SpanRecord{}
	ids := map[uint64]bool{}
	for _, sp := range t.Spans {
		ids[sp.ID] = true
	}
	var roots []SpanRecord
	for _, sp := range t.Spans {
		if sp.Parent != 0 && ids[sp.Parent] {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var render func(sp SpanRecord, depth int)
	render = func(sp SpanRecord, depth int) {
		off := int(float64(sp.StartUnix-t0) / float64(total) * waterfallWidth)
		length := int(float64(sp.DurationNS) / float64(total) * waterfallWidth)
		if length < 1 {
			length = 1
		}
		if off+length > waterfallWidth {
			off = waterfallWidth - length
			if off < 0 {
				off = 0
				length = waterfallWidth
			}
		}
		bar := strings.Repeat(" ", off) + strings.Repeat("=", length) +
			strings.Repeat(" ", waterfallWidth-off-length)
		name := strings.Repeat("  ", depth) + sp.Name
		fmt.Fprintf(w, "  %-28s |%s| %s\n", name, bar, time.Duration(sp.DurationNS))
		for _, c := range children[sp.ID] {
			render(c, depth+1)
		}
	}
	for _, sp := range roots {
		render(sp, 0)
	}
}
