package prov

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestModelDefinitions(t *testing.T) {
	bb := Blackbox()
	if !bb.IsActivity(TypeProcess) || !bb.IsEntity(TypeFile) {
		t.Fatal("PBB types wrong")
	}
	if !bb.ValidEdge(EdgeReadFrom, TypeFile, TypeProcess) {
		t.Error("readFrom(file, process) must be valid in PBB")
	}
	if bb.ValidEdge(EdgeReadFrom, TypeProcess, TypeFile) {
		t.Error("readFrom(process, file) must be invalid")
	}

	lin := Lineage()
	for _, st := range []string{TypeQuery, TypeInsert, TypeUpdate, TypeDelete} {
		if !lin.IsActivity(st) {
			t.Errorf("%s must be a PLin activity", st)
		}
		if !lin.ValidEdge(EdgeHasRead, TypeTuple, st) || !lin.ValidEdge(EdgeHasReturned, st, TypeTuple) {
			t.Errorf("PLin edges for %s wrong", st)
		}
	}

	comb := CombinedDefault()
	if !comb.ValidEdge(EdgeRun, TypeProcess, TypeQuery) {
		t.Error("run(process, query) must be valid in combined model")
	}
	if !comb.ValidEdge(EdgeReadFrom, TypeTuple, TypeProcess) {
		t.Error("readFrom(tuple, process) must be valid in combined model")
	}
	if !comb.ValidEdge(EdgeReadFrom, TypeFile, TypeProcess) {
		t.Error("PBB readFrom must survive combination")
	}
}

func TestCombinedRejectsOverlap(t *testing.T) {
	a := Blackbox()
	b := Blackbox()
	if _, err := Combined(a, b); err == nil {
		t.Fatal("overlapping type sets must be rejected")
	}
	lin := Lineage()
	lin.Entities[TypeFile] = true
	if _, err := Combined(Blackbox(), lin); err == nil {
		t.Fatal("overlapping entity types must be rejected")
	}
}

func TestIntervals(t *testing.T) {
	iv := Interval{Begin: 1, End: 6}
	if iv.String() != "[1, 6]" {
		t.Errorf("interval string = %q", iv.String())
	}
	if !iv.Valid() || (Interval{Begin: 3, End: 2}).Valid() {
		t.Error("validity wrong")
	}
	if Point(4) != (Interval{Begin: 4, End: 4}) {
		t.Error("point wrong")
	}
}

// buildFig2 constructs the paper's Figure 2 combined execution trace:
// process P1 reads files A [1,6] and B [7,8], runs Insert1 at [5,5]
// producing t1 and t2, and Insert2 at [8,8] producing t3. Process P2 runs
// Query at [9,9] which reads t1 and t3 and returns t4 and t5; P2 writes
// file C during [7,12].
func buildFig2(t *testing.T) *Trace {
	t.Helper()
	tr := NewTrace(CombinedDefault())
	add := func(id, typ string) {
		if _, err := tr.AddNode(id, typ, id); err != nil {
			t.Fatal(err)
		}
	}
	edge := func(from, to, label string, b, e uint64) {
		if _, err := tr.AddEdge(from, to, label, Interval{Begin: b, End: e}); err != nil {
			t.Fatal(err)
		}
	}
	add("P1", TypeProcess)
	add("P2", TypeProcess)
	add("A", TypeFile)
	add("B", TypeFile)
	add("C", TypeFile)
	add("Insert1", TypeInsert)
	add("Insert2", TypeInsert)
	add("Query", TypeQuery)
	for _, tp := range []string{"t1", "t2", "t3", "t4", "t5"} {
		add(tp, TypeTuple)
	}
	edge("A", "P1", EdgeReadFrom, 1, 6)
	edge("B", "P1", EdgeReadFrom, 7, 8)
	edge("P1", "Insert1", EdgeRun, 5, 5)
	edge("P1", "Insert2", EdgeRun, 8, 8)
	edge("Insert1", "t1", EdgeHasReturned, 5, 5)
	edge("Insert1", "t2", EdgeHasReturned, 5, 5)
	edge("Insert2", "t3", EdgeHasReturned, 8, 8)
	edge("t1", "Query", EdgeHasRead, 9, 9)
	edge("t3", "Query", EdgeHasRead, 9, 9)
	edge("P2", "Query", EdgeRun, 9, 9)
	edge("Query", "t4", EdgeHasReturned, 9, 9)
	edge("Query", "t5", EdgeHasReturned, 9, 9)
	edge("t4", "P2", EdgeReadFrom, 9, 9)
	edge("t5", "P2", EdgeReadFrom, 9, 9)
	edge("P2", "C", EdgeHasWritten, 7, 12)
	// PLin direct dependencies (Definition 7): t4 and t5 depend on t1, t3.
	for _, out := range []string{"t4", "t5"} {
		for _, in := range []string{"t1", "t3"} {
			if err := tr.AddDep(in, out); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

func TestFig2TraceConstruction(t *testing.T) {
	tr := buildFig2(t)
	if tr.NodeCount() != 13 {
		t.Errorf("nodes = %d", tr.NodeCount())
	}
	if tr.EdgeCount() != 15 {
		t.Errorf("edges = %d", tr.EdgeCount())
	}
	if len(tr.Out("P1")) != 2 || len(tr.In("P1")) != 2 {
		t.Errorf("P1 degree: out=%d in=%d", len(tr.Out("P1")), len(tr.In("P1")))
	}
	if !tr.HasDep("t1", "t4") || tr.HasDep("t2", "t4") {
		t.Error("deps wrong")
	}
}

func TestTraceValidation(t *testing.T) {
	tr := NewTrace(Blackbox())
	if _, err := tr.AddNode("x", TypeTuple, ""); err == nil {
		t.Error("tuple node in PBB must be rejected")
	}
	tr.AddNode("P", TypeProcess, "")
	tr.AddNode("F", TypeFile, "")
	if _, err := tr.AddNode("P", TypeFile, ""); err == nil {
		t.Error("retyping a node must be rejected")
	}
	if n, err := tr.AddNode("P", TypeProcess, ""); err != nil || n != tr.Node("P").Ref {
		t.Error("idempotent AddNode broken")
	}
	if _, err := tr.AddEdge("P", "F", EdgeReadFrom, Point(1)); err == nil {
		t.Error("readFrom(process, file) must be rejected")
	}
	if _, err := tr.AddEdge("F", "P", EdgeReadFrom, Interval{Begin: 5, End: 2}); err == nil {
		t.Error("invalid interval must be rejected")
	}
	if _, err := tr.AddEdge("missing", "P", EdgeReadFrom, Point(1)); err == nil {
		t.Error("missing source must be rejected")
	}
	if _, err := tr.AddEdge("F", "missing", EdgeReadFrom, Point(1)); err == nil {
		t.Error("missing target must be rejected")
	}
	if err := tr.AddDep("F", "P"); err == nil {
		t.Error("dep to an activity must be rejected")
	}
	if err := tr.AddDep("F", "missing"); err == nil {
		t.Error("dep to missing node must be rejected")
	}
}

func TestStateDefinition(t *testing.T) {
	// Definition 10: state of P1 at time 6 contains A (read began at 1) but
	// not B (read began at 7).
	tr := buildFig2(t)
	state := tr.State("P1", 6)
	ids := make([]string, len(state))
	for i, n := range state {
		ids[i] = n.ID
	}
	if strings.Join(ids, ",") != "A" {
		t.Fatalf("state(P1, 6) = %v", ids)
	}
	state = tr.State("P1", 8)
	if len(state) != 2 {
		t.Fatalf("state(P1, 8) = %v", state)
	}
	if len(tr.State("A", 100)) != 0 {
		t.Fatal("A has no incoming interactions")
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	tr := buildFig2(t)
	tr.SetAttr(tr.Node("Query").Ref, AttrSQL, "SELECT ...")
	data, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Unmarshal(data, CombinedDefault())
	if err != nil {
		t.Fatal(err)
	}
	if tr2.NodeCount() != tr.NodeCount() || tr2.EdgeCount() != tr.EdgeCount() {
		t.Fatalf("round trip size mismatch: %d/%d vs %d/%d",
			tr2.NodeCount(), tr2.EdgeCount(), tr.NodeCount(), tr.EdgeCount())
	}
	if tr2.Attr(tr2.Node("Query").Ref, AttrSQL) != "SELECT ..." {
		t.Error("attrs lost")
	}
	if len(tr2.Deps()) != len(tr.Deps()) {
		t.Error("deps lost")
	}
	// Wrong model is rejected.
	if _, err := Unmarshal(data, Blackbox()); err == nil {
		t.Error("model mismatch must be rejected")
	}
	if _, err := Unmarshal([]byte(`{"model":"PBB+PLin","nodes":[]}`), CombinedDefault()); err == nil || !strings.Contains(err.Error(), "JSON trace") {
		t.Errorf("a JSON trace of the old format must be rejected as such, got %v", err)
	}
}

func TestExportPROV(t *testing.T) {
	tr := buildFig2(t)
	data, err := tr.ExportPROV()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("PROV export is not valid JSON: %v", err)
	}
	ent := doc["entity"].(map[string]any)
	act := doc["activity"].(map[string]any)
	if len(ent) != 8 { // 3 files + 5 tuples
		t.Errorf("entities = %d", len(ent))
	}
	if len(act) != 5 { // 2 processes + 3 statements
		t.Errorf("activities = %d", len(act))
	}
	for _, rel := range []string{"used", "wasGeneratedBy", "wasStartedBy", "wasDerivedFrom"} {
		if _, ok := doc[rel]; !ok {
			t.Errorf("relation %s missing from PROV export", rel)
		}
	}
}

func TestExportDOT(t *testing.T) {
	tr := buildFig2(t)
	dot := tr.ExportDOT()
	if !strings.HasPrefix(dot, "digraph trace {") || !strings.HasSuffix(dot, "}\n") {
		t.Fatal("malformed DOT document")
	}
	for _, want := range []string{"shape=box", "shape=ellipse", "style=dashed", "readFrom [1, 6]"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	// IDs with special characters must be escaped into valid DOT identifiers.
	tr2 := NewTrace(Blackbox())
	tr2.AddNode("file:/a-b/c.txt", TypeFile, `label with "quotes"`)
	dot2 := tr2.ExportDOT()
	if strings.Contains(dot2, "n_file:/") {
		t.Error("unescaped DOT identifier")
	}
	if !strings.Contains(dot2, `\"quotes\"`) {
		t.Error("unescaped DOT label")
	}
}

func TestEdgeTraceIDRoundTrip(t *testing.T) {
	tr := NewTrace(CombinedDefault())
	tr.AddNode("P", TypeProcess, "")
	tr.AddNode("Q", TypeQuery, "")
	const tid = "0102030405060708090a0b0c0d0e0f10"
	e, err := tr.AddEdgeTraced("P", "Q", EdgeRun, Point(1), tid)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.String(e.Trace); got != tid {
		t.Fatalf("TraceID = %q", got)
	}
	data, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), tid) != 1 {
		t.Fatalf("serialized trace must hold the trace id once: %q", data)
	}
	tr2, err := Unmarshal(data, CombinedDefault())
	if err != nil {
		t.Fatal(err)
	}
	if got := tr2.String(tr2.Edges()[0].Trace); got != tid {
		t.Fatalf("round-tripped TraceID = %q", got)
	}
	// Untraced edges stay untraced.
	tr.AddNode("Q2", TypeQuery, "")
	if _, err := tr.AddEdge("P", "Q2", EdgeRun, Point(2)); err != nil {
		t.Fatal(err)
	}
	data, err = tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if tr2, err = Unmarshal(data, CombinedDefault()); err != nil {
		t.Fatal(err)
	}
	if e := tr2.EdgesByTime(); e[0].Trace == 0 || e[1].Trace != 0 {
		t.Fatalf("trace ids after round trip: %v", e)
	}
}
