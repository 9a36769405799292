package obs

import (
	"fmt"
	"sync"
	"testing"
)

// TestFlightRecorderEvictsAbandonedTraces covers the leak path: spans that
// are started and never ended (a crashed client, a leaked span) must not
// keep completed traces from being listed, and must cost the recorder
// nothing — the ring lists exactly DefaultTraceCapacity completed traces,
// each whole.
func TestFlightRecorderEvictsAbandonedTraces(t *testing.T) {
	r := NewRegistry()

	// Leak far more traces than the listing holds, interleaved with
	// completed ones, from several goroutines (run under -race by
	// `make check`).
	const writers = 4
	const perWriter = 2 * DefaultTraceCapacity
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_ = r.StartSpan("leaked") // never ended
				sp := r.StartSpan("completed")
				sp.Child("stage").End()
				sp.End()
			}
		}()
	}
	wg.Wait()

	traces := r.Traces()
	if len(traces) != DefaultTraceCapacity {
		t.Fatalf("retained %d traces, want %d", len(traces), DefaultTraceCapacity)
	}
	for _, tr := range traces {
		if tr.Root != "completed" {
			t.Fatalf("listed trace root = %q, want only completed traces", tr.Root)
		}
		if len(tr.Spans) != 2 {
			t.Fatalf("listed trace has %d spans, want 2", len(tr.Spans))
		}
	}
}

// TestFlightRecorderListsOnlyWholeTraces pushes more spans than the ring
// holds, so the oldest traces lose spans to it: those are never listed
// (not even in part), and every newer trace is listed whole.
func TestFlightRecorderListsOnlyWholeTraces(t *testing.T) {
	r := NewRegistry()
	const perTrace = 30 // root + 29 children
	const whole = spanCapacity / perTrace
	if whole >= DefaultTraceCapacity || spanCapacity%perTrace == 0 {
		t.Fatal("sizes must leave one trace cut by the ring, inside the listing bound")
	}
	const n = whole + 20
	ids := make([]TraceID, n)
	for i := range ids {
		root := r.StartSpan(fmt.Sprintf("t%d", i))
		ids[i] = root.TraceID()
		for c := 0; c < perTrace-1; c++ {
			root.Child("stage").End()
		}
		root.End()
	}
	// The ring holds the newest spanCapacity spans: the last whole traces
	// complete, and the root plus the last children of the one before them.
	traces := r.Traces()
	if len(traces) != whole {
		t.Fatalf("listed %d traces, want %d", len(traces), whole)
	}
	for k, tr := range traces {
		i := n - 1 - k
		if tr.Trace != ids[i] || tr.Root != fmt.Sprintf("t%d", i) {
			t.Fatalf("trace %d = %s root=%q, want t%d", k, tr.Trace, tr.Root, i)
		}
		if len(tr.Spans) != perTrace {
			t.Fatalf("trace t%d has %d spans, want %d", i, len(tr.Spans), perTrace)
		}
	}
}

// TestFlightRecorderSkipsTraceLargerThanRing: a trace with more spans than
// the ring holds can never be listed whole, so it is not listed.
func TestFlightRecorderSkipsTraceLargerThanRing(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("big")
	for i := 0; i < spanCapacity+50; i++ {
		root.Child("stage").End()
	}
	root.End()
	if traces := r.Traces(); len(traces) != 0 {
		t.Fatalf("traces = %d (first has %d spans), want none", len(traces), len(traces[0].Spans))
	}
}

// TestRingWrapOrder checks ring[T] just below, at and above its size: it
// keeps the newest entries oldest first, and add returns what it overwrote.
func TestRingWrapOrder(t *testing.T) {
	const size = 4
	for _, n := range []int{size - 1, size, size + 1, 2*size + 3} {
		r := ring[int]{size: size}
		for v := 1; v <= n; v++ {
			want := 0
			if v > size {
				want = v - size
			}
			if old := r.add(v); old != want {
				t.Fatalf("n=%d: add(%d) overwrote %d, want %d", n, v, old, want)
			}
		}
		got := r.all()
		first := max(1, n-size+1)
		if len(got) != n-first+1 {
			t.Fatalf("n=%d: all() = %v, want %d..%d", n, got, first, n)
		}
		for i, v := range got {
			if v != first+i {
				t.Fatalf("n=%d: all() = %v, want %d..%d", n, got, first, n)
			}
		}
		r.reset()
		if len(r.all()) != 0 {
			t.Fatalf("n=%d: reset left %v", n, r.all())
		}
		if r.add(7); len(r.all()) != 1 {
			t.Fatalf("n=%d: after reset all() = %v, want [7]", n, r.all())
		}
	}
}

// BenchmarkRequestSpans is what one traced request costs the span layer: a
// client root, a server entry joined from its context, and three engine
// children, all ended.
func BenchmarkRequestSpans(b *testing.B) {
	r := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := r.StartSpan("client.query")
		srv := r.StartSpanIn("server.query", root.Context())
		srv.Child("engine.parse").End()
		srv.Child("engine.plan").End()
		srv.Child("engine.exec").End()
		srv.End()
		root.End()
	}
}
