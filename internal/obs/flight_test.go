package obs

import (
	"sync"
	"testing"
)

// TestFlightRecorderEvictsAbandonedTraces covers the leak path the ring
// bound alone does not: spans that are started and never ended (a crashed
// client, a leaked span) accumulate open-trace working state. The recorder
// must evict abandoned traces oldest-first at maxOpenTraces, so an unbounded
// stream of leaks costs bounded memory — and well-behaved traces sealing
// concurrently with the leaks must still reach the ring.
func TestFlightRecorderEvictsAbandonedTraces(t *testing.T) {
	r := NewRegistry()

	// Leak far more traces than the open cap, interleaved with completed
	// ones, from several goroutines (run under -race by `make check`).
	const writers = 4
	const perWriter = 2 * maxOpenTraces / writers
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

	r.flight.mu.Lock()
	open, order := len(r.flight.open), len(r.flight.order)
	r.flight.mu.Unlock()
	if open > maxOpenTraces || order > maxOpenTraces {
		t.Fatalf("open traces = %d (order %d), want <= %d", open, order, maxOpenTraces)
	}
	if open == 0 {
		t.Fatal("expected abandoned traces to remain open up to the cap")
	}

	// Completed traces sealed normally throughout: the ring is full of them
	// and no leaked-only trace was sealed.
	traces := r.Traces()
	if len(traces) != DefaultTraceCapacity {
		t.Fatalf("retained %d traces, want %d", len(traces), DefaultTraceCapacity)
	}
	for _, tr := range traces {
		if tr.Root != "completed" {
			t.Fatalf("sealed trace root = %q, want only completed traces", tr.Root)
		}
		if len(tr.Spans) != 2 {
			t.Fatalf("sealed trace has %d spans, want 2", len(tr.Spans))
		}
	}
}

// TestFlightRecorderDrainsEvictedTrace pins the begin/observe clamp: when a
// trace's working state is evicted between a child's begin and its End, the
// recreated state must still drain and seal when the entry span ends, rather
// than waiting forever on a lost in-flight count.
func TestFlightRecorderDrainsEvictedTrace(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("victim")
	child := root.Child("stage")

	// Push the victim trace out of the open set while its spans are live.
	for i := 0; i < maxOpenTraces+1; i++ {
		_ = r.StartSpan("filler")
	}

	child.End()
	root.End()
	for _, tr := range r.Traces() {
		if tr.Root == "victim" {
			return
		}
	}
	t.Fatal("evicted trace did not seal after its entry span ended")
}

// TestFlightRecorderCapsSpansPerTrace: a trace accumulating more spans than
// maxSpansPerTrace keeps the first spans and drops the rest, bounding the
// sealed record's size.
func TestFlightRecorderCapsSpansPerTrace(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("big")
	for i := 0; i < maxSpansPerTrace+50; i++ {
		root.Child("stage").End()
	}
	root.End()
	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	if got := len(traces[0].Spans); got != maxSpansPerTrace {
		t.Fatalf("sealed spans = %d, want cap %d", got, maxSpansPerTrace)
	}
}
