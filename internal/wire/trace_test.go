package wire

import (
	"bytes"
	"reflect"
	"testing"

	"ldv/internal/obs"
)

func testSpanContext() obs.SpanContext {
	var tr obs.TraceID
	for i := range tr {
		tr[i] = byte(i + 1)
	}
	return obs.SpanContext{Trace: tr, Span: 0x1122334455667788}
}

func TestTraceContextRoundTrip(t *testing.T) {
	sc := testSpanContext()
	for _, m := range []Message{
		Query{SQL: "SELECT 1", Trace: sc},
		Query{SQL: "SELECT 1", WithLineage: true, Trace: sc},
		// A zero trace id with a span id is kept as it is.
		Query{SQL: "SELECT 1", Trace: obs.SpanContext{Span: sc.Span}},
		Execute{Stmt: "s1", Trace: obs.SpanContext{Span: 1}},
		Stats{Kind: StatsKindTraces},
		Stats{Kind: StatsKindMetrics},
	} {
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatalf("Write(%#v): %v", m, err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read(%#v): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip: got %#v, want %#v", got, m)
		}
	}
}

func TestTraceContextDecodeErrors(t *testing.T) {
	// A trace context is exactly 24 bytes: a frame cut inside one is a
	// decode error, not a zero context.
	b := encodePayload(Query{SQL: "SELECT 1", Trace: testSpanContext()})
	ctxAt := 1 + 1 + len("SELECT 1")
	if _, err := decodePayload(TagQuery, b[:ctxAt+3]); err == nil {
		t.Fatal("partial trace context must fail")
	}
	// Bytes after the last field fail the no-trailing-bytes check.
	if _, err := decodePayload(TagQuery, append(b, 0xEE)); err == nil {
		t.Fatal("trailing junk after AsOf must fail")
	}
}

// FuzzStatementFrames round-trips the statement frames, Query and Execute,
// over arbitrary trace contexts, read-your-writes bounds and AS OF ticks:
// every field comes back exactly as it was written.
func FuzzStatementFrames(f *testing.F) {
	sc := testSpanContext()
	f.Add(sc.Trace[:], sc.Span, "SELECT 1", true, uint64(7), uint64(9), uint64(3))
	f.Add(make([]byte, 16), uint64(0), "", false, uint64(0), uint64(0), uint64(0))
	f.Add(make([]byte, 16), uint64(1), "SELECT 2", false, uint64(1<<63), uint64(0), uint64(1))
	f.Fuzz(func(t *testing.T, trace []byte, span uint64, sql string, lineage bool, minApplied, asOf, tag uint64) {
		var sc obs.SpanContext
		copy(sc.Trace[:], trace)
		sc.Span = span
		for _, m := range []Message{
			Query{SQL: sql, WithLineage: lineage, Trace: sc, MinApplied: minApplied, AsOf: asOf},
			Execute{Stmt: sql, Tag: tag, WithLineage: lineage, Trace: sc, MinApplied: minApplied},
		} {
			var buf bytes.Buffer
			if err := Write(&buf, m); err != nil {
				t.Fatalf("Write: %v", err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip: got %#v, want %#v", got, m)
			}
		}
	})
}
