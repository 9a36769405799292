package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	if id.IsZero() {
		t.Fatal("NewTraceID returned zero ID")
	}
	s := id.String()
	if len(s) != 32 {
		t.Fatalf("String() = %q, want 32 hex digits", s)
	}
	back, err := ParseTraceID(s)
	if err != nil {
		t.Fatalf("ParseTraceID(%q): %v", s, err)
	}
	if back != id {
		t.Fatalf("round trip: got %s want %s", back, id)
	}
	if _, err := ParseTraceID("abc"); err == nil {
		t.Fatal("ParseTraceID accepted short input")
	}
	if _, err := ParseTraceID(strings.Repeat("g", 32)); err == nil {
		t.Fatal("ParseTraceID accepted non-hex input")
	}
}

func TestTraceIDUnique(t *testing.T) {
	const n = 4096
	seen := make(map[TraceID]bool, n)
	for i := 0; i < n; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s after %d draws", id, i)
		}
		seen[id] = true
	}
}

func TestSpanTraceInheritance(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("root")
	if root.TraceID().IsZero() {
		t.Fatal("root span has zero trace ID")
	}
	child := root.Child("child")
	grand := child.Child("grand")
	if child.TraceID() != root.TraceID() || grand.TraceID() != root.TraceID() {
		t.Fatal("children did not inherit the root's trace ID")
	}
	joined := r.StartSpanIn("joined", root.Context())
	if joined.TraceID() != root.TraceID() {
		t.Fatal("StartSpanIn did not join the given trace")
	}
	fresh := r.StartSpanIn("fresh", SpanContext{})
	if fresh.TraceID().IsZero() || fresh.TraceID() == root.TraceID() {
		t.Fatal("zero context should originate a fresh trace")
	}
}

func TestNilSpanSafe(t *testing.T) {
	var s *Span
	if s.Child("x") != nil {
		t.Fatal("nil.Child should be nil")
	}
	if s.SetAttr("k", "v") != nil {
		t.Fatal("nil.SetAttr should be nil")
	}
	if s.End() != 0 || s.ID() != 0 || !s.TraceID().IsZero() || !s.Context().IsZero() {
		t.Fatal("nil span accessors should return zeros")
	}
}

func TestFlightRecorderSealsOnRootEnd(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("client.query")
	child := root.Child("server.query")
	grand := child.Child("engine.exec").SetAttr("sql", "SELECT 1")
	grand.End()
	child.End()
	if got := r.Traces(); len(got) != 0 {
		t.Fatalf("trace sealed before root End: %d records", len(got))
	}
	root.End()
	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Trace != root.TraceID() || tr.Root != "client.query" {
		t.Fatalf("sealed trace = %s root=%q", tr.Trace, tr.Root)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("sealed trace has %d spans, want 3", len(tr.Spans))
	}
	// Spans are sorted by start time: root first.
	if tr.Spans[0].Name != "client.query" {
		t.Fatalf("first span = %q, want client.query", tr.Spans[0].Name)
	}
	if tr.Spans[2].Attr("sql") != "SELECT 1" {
		t.Fatalf("attr lost: %+v", tr.Spans[2])
	}
}

func TestFlightRecorderNewestFirstAndBounded(t *testing.T) {
	r := NewRegistry()
	const capacity = DefaultTraceCapacity
	var last TraceID
	for i := 0; i < capacity+10; i++ {
		sp := r.StartSpan("op")
		last = sp.TraceID()
		sp.End()
	}
	traces := r.Traces()
	if len(traces) != capacity {
		t.Fatalf("retained %d traces, want %d", len(traces), capacity)
	}
	if traces[0].Trace != last {
		t.Fatal("first record is not the newest trace")
	}
}

func TestMarshalParseTraces(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("q")
	sp.Child("c").End()
	sp.End()
	data, err := MarshalTraces(r.Traces())
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTraces(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].Trace != sp.TraceID() || len(back[0].Spans) != 2 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if _, err := ParseTraces([]byte("{")); err == nil {
		t.Fatal("ParseTraces accepted malformed JSON")
	}
}

func TestWaterfall(t *testing.T) {
	r := NewRegistry()
	root := r.StartSpan("client.query")
	root.Child("server.query").End()
	root.End()
	tr := r.Traces()[0]
	var b strings.Builder
	tr.Waterfall(&b)
	out := b.String()
	if !strings.Contains(out, "trace "+tr.Trace.String()) {
		t.Fatalf("waterfall missing trace header:\n%s", out)
	}
	for _, name := range []string{"client.query", "server.query", "="} {
		if !strings.Contains(out, name) {
			t.Fatalf("waterfall missing %q:\n%s", name, out)
		}
	}
	// A child renders indented under its parent.
	if !strings.Contains(out, "  server.query") {
		t.Fatalf("child span not indented:\n%s", out)
	}
}

// TestFlightRecorderConcurrent races span writers against Traces/Snapshot
// readers; run under -race it checks the flight recorder's locking.
func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				root := r.StartSpan("w.op")
				root.Child("w.child").End()
				root.End()
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, tr := range r.Traces() {
					if tr.Trace.IsZero() {
						t.Error("zero trace ID in sealed record")
						return
					}
				}
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()
	if got := len(r.Traces()); got != DefaultTraceCapacity {
		t.Fatalf("retained %d traces, want %d", got, DefaultTraceCapacity)
	}
}

// TestFlightRecorderSealsJoinedTrace is the distributed case: a server whose
// recorder only ever sees the joined (StartSpanIn) side of a trace — the
// client's root span ends in another process — must still seal its local
// view once the entry span ends and every child has drained.
func TestFlightRecorderSealsJoinedTrace(t *testing.T) {
	r := NewRegistry()
	remote := SpanContext{Trace: NewTraceID(), Span: 42}
	srv := r.StartSpanIn("server.query", remote)
	child := srv.Child("engine.exec")
	child.End()
	if got := r.Traces(); len(got) != 0 {
		t.Fatalf("trace sealed before entry span End: %d records", len(got))
	}
	srv.End()
	traces := r.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Trace != remote.Trace || tr.Root != "server.query" {
		t.Fatalf("sealed trace = %s root=%q", tr.Trace, tr.Root)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("sealed trace has %d spans, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Parent != remote.Span {
		t.Fatalf("entry span parent = %d, want remote %d", tr.Spans[0].Parent, remote.Span)
	}
}
