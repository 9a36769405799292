package deps

import (
	"reflect"
	"testing"

	"ldv/internal/prov"
)

// buildChain constructs the A -P1- B -P2- C file/process chain of the
// paper's Figure 6, with the four edge intervals given in order:
// A->P1, P1->B, B->P2, P2->C.
func buildChain(t *testing.T, ivs [4]prov.Interval) *prov.Trace {
	t.Helper()
	tr := prov.NewTrace(prov.CombinedDefault())
	for _, n := range []struct{ id, typ string }{
		{"A", prov.TypeFile}, {"B", prov.TypeFile}, {"C", prov.TypeFile},
		{"P1", prov.TypeProcess}, {"P2", prov.TypeProcess},
	} {
		if _, err := tr.AddNode(n.id, n.typ, n.id); err != nil {
			t.Fatal(err)
		}
	}
	edges := []struct {
		from, to, label string
	}{
		{"A", "P1", prov.EdgeReadFrom},
		{"P1", "B", prov.EdgeHasWritten},
		{"B", "P2", prov.EdgeReadFrom},
		{"P2", "C", prov.EdgeHasWritten},
	}
	for i, e := range edges {
		if _, err := tr.AddEdge(e.from, e.to, e.label, ivs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func iv(b, e uint64) prov.Interval { return prov.Interval{Begin: b, End: e} }

func TestFig6aNoDependency(t *testing.T) {
	// Figure 6a: P2 stopped reading B (at 5) before P1 wrote it (6..7), so C
	// cannot depend on A.
	tr := buildChain(t, [4]prov.Interval{iv(2, 3), iv(6, 7), iv(1, 5), iv(6, 6)})
	inf := NewDefaultInferencer(tr)
	if inf.DependsOn("C", "A") {
		t.Fatal("Fig 6a: C must NOT depend on A")
	}
	// The naive (non-temporal) rule would wrongly infer the dependency —
	// exactly the spurious dependency temporal pruning removes.
	inf.Naive = true
	if !inf.DependsOn("C", "A") {
		t.Fatal("Fig 6a: naive inference must include the spurious dependency")
	}
}

func TestFig6bDependencyAtTime4(t *testing.T) {
	// Figure 6b: C depends on A; the flow becomes feasible at time 4.
	tr := buildChain(t, [4]prov.Interval{iv(1, 1), iv(4, 7), iv(2, 5), iv(1, 6)})
	inf := NewDefaultInferencer(tr)
	deps := inf.Dependents("A")
	at, ok := deps["C"]
	if !ok {
		t.Fatal("Fig 6b: C must depend on A")
	}
	if at != 4 {
		t.Fatalf("Fig 6b: dependency arises at %d, want 4", at)
	}
}

func TestFig6cMissingDirectDependency(t *testing.T) {
	// Figure 6c: same temporal annotations as 6b, but the direct data
	// dependency (B depends on A) is absent, so condition 1 blocks the path.
	tr := buildChain(t, [4]prov.Interval{iv(1, 1), iv(4, 7), iv(2, 5), iv(1, 6)})
	direct := Set{}
	direct.Add("C", "B") // C <- B holds, B <- A does not
	inf := NewInferencer(tr, direct, prov.Blackbox(), prov.Lineage())
	if inf.DependsOn("C", "A") {
		t.Fatal("Fig 6c: C must NOT depend on A without the B<-A dependency")
	}
	if !inf.DependsOn("C", "B") {
		t.Fatal("Fig 6c: C must still depend on B")
	}
}

// buildFig4 is the paper's Figure 4 / Examples 6 and 7: P1 reads A [1,5]
// and B [5,7], writes C [2,3] and D [8,8].
func buildFig4(t *testing.T) *prov.Trace {
	t.Helper()
	tr := prov.NewTrace(prov.CombinedDefault())
	for _, n := range []struct{ id, typ string }{
		{"A", prov.TypeFile}, {"B", prov.TypeFile}, {"C", prov.TypeFile},
		{"D", prov.TypeFile}, {"P1", prov.TypeProcess},
	} {
		tr.AddNode(n.id, n.typ, n.id)
	}
	tr.AddEdge("A", "P1", prov.EdgeReadFrom, iv(1, 5))
	tr.AddEdge("B", "P1", prov.EdgeReadFrom, iv(5, 7))
	tr.AddEdge("P1", "C", prov.EdgeHasWritten, iv(2, 3))
	tr.AddEdge("P1", "D", prov.EdgeHasWritten, iv(8, 8))
	return tr
}

func TestBlackboxDepsDefinition8(t *testing.T) {
	// Example 6: both C and D are (conservatively) data dependent on A and B.
	tr := buildFig4(t)
	d := BlackboxDeps(tr)
	for _, out := range []string{"C", "D"} {
		for _, in := range []string{"A", "B"} {
			if !d.Has(out, in) {
				t.Errorf("Definition 8: %s must depend on %s", out, in)
			}
		}
	}
	if d.Has("A", "C") || d.Has("C", "D") {
		t.Error("Definition 8 produced reversed or file-file spurious deps")
	}
	if len(d) != 4 {
		t.Errorf("deps = %v", d.Sorted())
	}
}

func TestExample7TemporalPruning(t *testing.T) {
	// Example 7: C was written before P1 read B, so the inferred set must
	// exclude (C, B) while keeping (C, A) and (D, *).
	tr := buildFig4(t)
	inf := NewDefaultInferencer(tr)
	if inf.DependsOn("C", "B") {
		t.Fatal("C must not depend on B (written before B was read)")
	}
	if !inf.DependsOn("C", "A") {
		t.Fatal("C must depend on A")
	}
	if !inf.DependsOn("D", "A") || !inf.DependsOn("D", "B") {
		t.Fatal("D must depend on both inputs")
	}
}

func TestExecutedProcessChain(t *testing.T) {
	// Definition 8's process chains: P1 executed P2; P1 read A, P2 wrote B.
	tr := prov.NewTrace(prov.CombinedDefault())
	tr.AddNode("A", prov.TypeFile, "")
	tr.AddNode("B", prov.TypeFile, "")
	tr.AddNode("P1", prov.TypeProcess, "")
	tr.AddNode("P2", prov.TypeProcess, "")
	tr.AddEdge("A", "P1", prov.EdgeReadFrom, iv(1, 2))
	tr.AddEdge("P1", "P2", prov.EdgeExecuted, prov.Point(3))
	tr.AddEdge("P2", "B", prov.EdgeHasWritten, iv(4, 5))
	d := BlackboxDeps(tr)
	if !d.Has("B", "A") {
		t.Fatal("dependency through executed chain missing")
	}
	inf := NewDefaultInferencer(tr)
	if !inf.DependsOn("B", "A") {
		t.Fatal("temporal inference must confirm the chain dependency")
	}
}

// buildFig2 mirrors the combined trace of the paper's Figure 2 (see the
// prov package tests for the node/edge inventory).
func buildFig2(t *testing.T) *prov.Trace {
	t.Helper()
	tr := prov.NewTrace(prov.CombinedDefault())
	nodes := []struct{ id, typ string }{
		{"P1", prov.TypeProcess}, {"P2", prov.TypeProcess},
		{"A", prov.TypeFile}, {"B", prov.TypeFile}, {"C", prov.TypeFile},
		{"Insert1", prov.TypeInsert}, {"Insert2", prov.TypeInsert}, {"Query", prov.TypeQuery},
		{"t1", prov.TypeTuple}, {"t2", prov.TypeTuple}, {"t3", prov.TypeTuple},
		{"t4", prov.TypeTuple}, {"t5", prov.TypeTuple},
	}
	for _, n := range nodes {
		tr.AddNode(n.id, n.typ, n.id)
	}
	edges := []struct {
		from, to, label string
		b, e            uint64
	}{
		{"A", "P1", prov.EdgeReadFrom, 1, 6},
		{"B", "P1", prov.EdgeReadFrom, 7, 8},
		{"P1", "Insert1", prov.EdgeRun, 5, 5},
		{"P1", "Insert2", prov.EdgeRun, 8, 8},
		{"Insert1", "t1", prov.EdgeHasReturned, 5, 5},
		{"Insert1", "t2", prov.EdgeHasReturned, 5, 5},
		{"Insert2", "t3", prov.EdgeHasReturned, 8, 8},
		{"t1", "Query", prov.EdgeHasRead, 9, 9},
		{"t3", "Query", prov.EdgeHasRead, 9, 9},
		{"P2", "Query", prov.EdgeRun, 9, 9},
		{"Query", "t4", prov.EdgeHasReturned, 9, 9},
		{"Query", "t5", prov.EdgeHasReturned, 9, 9},
		{"t4", "P2", prov.EdgeReadFrom, 9, 9},
		{"t5", "P2", prov.EdgeReadFrom, 9, 9},
		{"P2", "C", prov.EdgeHasWritten, 7, 12},
	}
	for _, e := range edges {
		if _, err := tr.AddEdge(e.from, e.to, e.label, iv(e.b, e.e)); err != nil {
			t.Fatal(err)
		}
	}
	for _, out := range []string{"t4", "t5"} {
		for _, in := range []string{"t1", "t3"} {
			tr.AddDep(in, out)
		}
	}
	return tr
}

func TestFig2CrossModelInference(t *testing.T) {
	tr := buildFig2(t)
	inf := NewDefaultInferencer(tr)

	// File C transitively depends on files A and B and tuples t1, t3, t4, t5.
	deps := inf.Dependencies("C")
	want := []string{"A", "B", "t1", "t3", "t4", "t5"}
	if !reflect.DeepEqual(deps, want) {
		t.Fatalf("Dependencies(C) = %v, want %v", deps, want)
	}

	// Nothing depends on t2 (it was inserted but never read) — the paper's
	// motivation for excluding it from packages.
	if got := inf.Dependents("t2"); len(got) != 0 {
		t.Fatalf("Dependents(t2) = %v, want none", got)
	}

	// t4 depends on its lineage and, cross-model, on the files P1 read
	// before running the inserts.
	if !inf.DependsOn("t4", "t1") || !inf.DependsOn("t4", "A") {
		t.Fatal("t4 dependencies missing")
	}
	if inf.DependsOn("t4", "t2") {
		t.Fatal("t4 must not depend on t2")
	}
	// t1 must not depend on B: B was read [7,8], after Insert1 ran at 5.
	if inf.DependsOn("t1", "B") {
		t.Fatal("t1 must not depend on B (temporal causality)")
	}
	// t3 (Insert2 at 8) does depend on B.
	if !inf.DependsOn("t3", "B") {
		t.Fatal("t3 must depend on B")
	}
}

func TestActivityDependsOn(t *testing.T) {
	tr := buildFig2(t)
	inf := NewDefaultInferencer(tr)
	if !inf.ActivityDependsOn("Query", "t1") {
		t.Fatal("Query's state must depend on t1")
	}
	if inf.ActivityDependsOn("Query", "t2") {
		t.Fatal("Query must not depend on t2")
	}
	if !inf.ActivityDependsOn("P2", "A") {
		t.Fatal("P2 must depend on A through the DB")
	}
	// Degenerate arguments.
	if inf.ActivityDependsOn("missing", "t1") || inf.ActivityDependsOn("Query", "missing") {
		t.Fatal("missing nodes must yield false")
	}
	if inf.ActivityDependsOn("t1", "t2") {
		t.Fatal("entity as activity must yield false")
	}
}

func TestAllMatchesPairwise(t *testing.T) {
	tr := buildFig2(t)
	inf := NewDefaultInferencer(tr)
	all := inf.All()
	// Cross-check All against DependsOn for every entity pair.
	entities := []string{"A", "B", "C", "t1", "t2", "t3", "t4", "t5"}
	for _, e := range entities {
		for _, d := range entities {
			if e == d {
				continue
			}
			if all.Has(e, d) != inf.DependsOn(e, d) {
				t.Errorf("All() and DependsOn disagree for (%s, %s)", e, d)
			}
		}
	}
}

func TestDependentsOfNonEntity(t *testing.T) {
	tr := buildFig2(t)
	inf := NewDefaultInferencer(tr)
	if len(inf.Dependents("P1")) != 0 {
		t.Fatal("Dependents of an activity must be empty")
	}
	if len(inf.Dependents("missing")) != 0 {
		t.Fatal("Dependents of a missing node must be empty")
	}
}

// An inferencer answers for the trace as it was when built: a node added
// afterwards is not found, whichever argument names it.
func TestNodeAddedAfterInferencer(t *testing.T) {
	tr := buildFig2(t)
	inf := NewDefaultInferencer(tr)
	tr.AddNode("D", prov.TypeFile, "D")
	tr.AddNode("P3", prov.TypeProcess, "P3")
	if len(inf.Dependents("D")) != 0 || inf.DependsOn("D", "A") || inf.DependsOn("C", "D") ||
		inf.Dependencies("D") != nil || inf.ActivityDependsOn("P3", "A") || inf.ActivityDependsOn("P1", "D") {
		t.Fatal("a node added after the inferencer was built must not be found")
	}
	if !inf.DependsOn("C", "A") {
		t.Fatal("the nodes the inferencer was built over must still answer")
	}
}

func TestSetSorted(t *testing.T) {
	s := Set{}
	s.Add("b", "x")
	s.Add("a", "y")
	s.Add("a", "x")
	got := s.Sorted()
	want := []Pair{{"a", "x"}, {"a", "y"}, {"b", "x"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Sorted = %v", got)
	}
}

func TestLineageDepsFromTrace(t *testing.T) {
	tr := buildFig2(t)
	ld := LineageDeps(tr)
	if !ld.Has("t4", "t1") || !ld.Has("t5", "t3") {
		t.Fatal("lineage deps missing")
	}
	if ld.Has("t4", "t2") {
		t.Fatal("t2 wrongly in lineage deps")
	}
	if len(ld) != 4 {
		t.Fatalf("lineage deps = %v", ld.Sorted())
	}
}

// Soundness spot check (Theorem 1): every inferred dependency must be
// witnessed by a path in the trace (axiom 2).
func TestInferredDependenciesHavePaths(t *testing.T) {
	tr := buildFig2(t)
	inf := NewDefaultInferencer(tr)
	reachable := func(from, to string) bool {
		seen := map[string]bool{from: true}
		queue := []string{from}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if n == to {
				return true
			}
			for _, e := range tr.Out(n) {
				if to := tr.ID(e.To); !seen[to] {
					seen[to] = true
					queue = append(queue, to)
				}
			}
		}
		return false
	}
	for p := range inf.All() {
		if !reachable(p.DependsOn, p.Entity) {
			t.Errorf("inferred dependency (%s <- %s) has no witnessing path", p.Entity, p.DependsOn)
		}
	}
}

// Completeness check: naive inference is a superset of temporal inference
// (temporal conditions only prune).
func TestNaiveIsSuperset(t *testing.T) {
	tr := buildFig2(t)
	inf := NewDefaultInferencer(tr)
	temporal := inf.All()
	inf.Naive = true
	naive := inf.All()
	for p := range temporal {
		if !naive[p] {
			t.Errorf("temporal dependency %v missing from naive set", p)
		}
	}
	if len(naive) < len(temporal) {
		t.Error("naive set smaller than temporal set")
	}
}
