package prov

import (
	"bytes"
	"testing"
)

type edgeSpec struct {
	from, to, label string
	begin, end      uint64
}

// buildFromSpecs constructs a trace with the given edge arrival order.
func buildFromSpecs(t *testing.T, specs []edgeSpec) *Trace {
	t.Helper()
	tr := NewTrace(CombinedDefault())
	for _, id := range []string{"P1", "P2"} {
		if _, err := tr.AddNode(id, TypeProcess, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"Q1", "Q2"} {
		if _, err := tr.AddNode(id, TypeQuery, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"t1", "t2"} {
		if _, err := tr.AddNode(id, TypeTuple, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range specs {
		if _, err := tr.AddEdge(s.from, s.to, s.label, Interval{Begin: s.begin, End: s.end}); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// Concurrent sessions record into one trace in nondeterministic arrival
// order; serialized artifacts must not depend on it. The same edge set
// inserted in different orders must marshal and render identically, in
// logical-clock order.
func TestEdgeOrderDeterminism(t *testing.T) {
	specs := []edgeSpec{
		{"P1", "Q1", EdgeRun, 3, 3},
		{"P2", "Q2", EdgeRun, 3, 3}, // same tick as Q1: tie broken by node id
		{"Q1", "t1", EdgeHasReturned, 4, 4},
		{"Q2", "t2", EdgeHasReturned, 5, 5},
		{"t1", "Q2", EdgeHasRead, 5, 5},
	}
	orders := [][]edgeSpec{
		specs,
		{specs[4], specs[3], specs[2], specs[1], specs[0]},
		{specs[2], specs[0], specs[4], specs[1], specs[3]},
	}

	var wantBytes []byte
	var wantDOT string
	for i, order := range orders {
		tr := buildFromSpecs(t, order)

		edges := tr.EdgesByTime()
		for j := 1; j < len(edges); j++ {
			if edges[j-1].T.Begin > edges[j].T.Begin {
				t.Fatalf("order %d: EdgesByTime not sorted by Begin at %d", i, j)
			}
		}

		data, err := tr.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		dot := tr.ExportDOT()
		if i == 0 {
			wantBytes, wantDOT = data, dot
			continue
		}
		if !bytes.Equal(data, wantBytes) {
			t.Errorf("order %d: Marshal differs from arrival order 0", i)
		}
		if dot != wantDOT {
			t.Errorf("order %d: ExportDOT differs from arrival order 0", i)
		}
	}

	// The tie at tick 3 resolves by From.ID: P1's edge sorts before P2's.
	tr := buildFromSpecs(t, orders[1])
	edges := tr.EdgesByTime()
	if tr.ID(edges[0].From) != "P1" || tr.ID(edges[1].From) != "P2" {
		t.Errorf("tie-break wrong: got %s then %s", tr.ID(edges[0].From), tr.ID(edges[1].From))
	}
}
