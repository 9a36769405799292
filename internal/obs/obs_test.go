package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	// Same name returns the same handle.
	if r.Counter("c") != c {
		t.Fatal("Counter did not return the cached handle")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(5)
	g.Add(-2)
	if got := g.Load(); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Record(int64(i*per + j + 1))
			}
		}()
	}
	wg.Wait()
	n := int64(workers * per)
	if h.Count() != n {
		t.Fatalf("count = %d, want %d", h.Count(), n)
	}
	if want := n * (n + 1) / 2; h.Sum() != want {
		t.Fatalf("sum = %d, want %d", h.Sum(), want)
	}
	s := h.snapshot()
	if s.Min != 1 || s.Max != n {
		t.Fatalf("min/max = %d/%d, want 1/%d", s.Min, s.Max, n)
	}
	var bucketTotal int64
	for _, c := range s.Buckets {
		bucketTotal += c
	}
	if bucketTotal != n {
		t.Fatalf("bucket total = %d, want %d", bucketTotal, n)
	}
	if q := s.Quantile(0.5); q < n/4 || q > n {
		t.Fatalf("p50 = %d out of plausible range [%d,%d]", q, n/4, n)
	}
}

func TestHistogramBuckets(t *testing.T) {
	if bucketIndex(0) != 0 || bucketIndex(-5) != 0 {
		t.Fatal("non-positive values must land in bucket 0")
	}
	// 2^(i-1) <= v < 2^i → index i = bits.Len64(v).
	if bucketIndex(1) != 1 || bucketIndex(2) != 2 || bucketIndex(3) != 2 || bucketIndex(4) != 3 {
		t.Fatalf("bucket mapping wrong: %d %d %d %d",
			bucketIndex(1), bucketIndex(2), bucketIndex(3), bucketIndex(4))
	}
	if BucketBound(histBuckets-1) != -1 {
		t.Fatal("last bucket must be unbounded")
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	r.SetLogicalClock(func() uint64 { return 42 })
	root := r.StartSpan("root")
	child := root.Child("child").SetAttr("k", "v")
	grand := child.Child("grand")
	grand.End()
	child.End()
	root.End()

	traces := r.Traces()
	if len(traces) != 1 || len(traces[0].Spans) != 3 {
		t.Fatalf("got %+v, want one trace of 3 spans", traces)
	}
	byName := map[string]SpanRecord{}
	for _, sp := range traces[0].Spans {
		byName[sp.Name] = sp
	}
	if byName["child"].Parent != byName["root"].ID {
		t.Fatal("child span does not reference root as parent")
	}
	if byName["grand"].Parent != byName["child"].ID {
		t.Fatal("grandchild span does not reference child as parent")
	}
	if byName["root"].Parent != 0 {
		t.Fatal("root span must have no parent")
	}
	if byName["child"].Attrs[0].Key != "k" || byName["child"].Attrs[0].Value != "v" {
		t.Fatal("span attr lost")
	}
	if byName["root"].StartTick != 42 || byName["root"].EndTick != 42 {
		t.Fatal("logical clock ticks not recorded")
	}
	// End also feeds the span.<name> histogram.
	if r.Snapshot().Histogram("span.root").Count != 1 {
		t.Fatal("span end did not observe into span.root histogram")
	}
	// Double End is a no-op.
	root.End()
	if got := r.Snapshot().Histogram("span.root").Count; got != 1 {
		t.Fatalf("double End recorded extra span: span.root count %d", got)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.stmts").Add(7)
	r.Gauge("server.active").Set(2)
	r.Histogram("engine.exec_ns.select").Observe(1500 * time.Nanosecond)
	r.StartSpan("replay.extract").End()

	data, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Counter("engine.stmts") != 7 {
		t.Fatalf("counter lost in round trip: %d", back.Counter("engine.stmts"))
	}
	if back.Gauge("server.active") != 2 {
		t.Fatal("gauge lost in round trip")
	}
	if back.Histogram("engine.exec_ns.select").Count != 1 {
		t.Fatal("histogram lost in round trip")
	}
	if back.Histogram("span.replay.extract").Count != 1 {
		t.Fatal("span histogram lost in round trip")
	}

	var buf strings.Builder
	back.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"engine.stmts", "server.active", "engine.exec_ns.select", "replay.extract"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestResetKeepsHandles(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	c.Add(3)
	h.Record(9)
	r.StartSpan("s").End()
	r.Reset()
	snap := r.Snapshot()
	if snap.Counter("c") != 0 || snap.Histogram("h").Count != 0 ||
		snap.Histogram("span.s").Count != 0 || len(r.Traces()) != 0 {
		t.Fatal("Reset did not zero metrics")
	}
	// Old handles keep recording into the (zeroed) metrics.
	c.Inc()
	h.Record(2)
	snap = r.Snapshot()
	if snap.Counter("c") != 1 || snap.Histogram("h").Count != 1 {
		t.Fatal("handles orphaned by Reset")
	}
	if snap.Histogram("h").Min != 2 {
		t.Fatalf("histogram min not reset: %d", snap.Histogram("h").Min)
	}
}
