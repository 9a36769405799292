package prov

import (
	"fmt"
	"sort"
)

// The methods in this file are the string-id boundary of a trace: what CLI
// arguments, exports, error messages, the paper's hand-built figures and
// tests go through. Each parses its ids into keys (ParseID) or renders
// keys into ids; none of them is on the audit or packaging path.

// AddNode creates (or returns the existing) node with the given id and
// type. A non-empty label is stored as the node's AttrLabel. Adding the
// same id with a different type is an error.
func (tr *Trace) AddNode(id, typ, label string) (Ref, error) {
	k, _ := tr.keyOf(id, true)
	r, err := tr.Intern(k, typ)
	if err != nil {
		return 0, err
	}
	if label != "" {
		tr.SetAttr(r, AttrLabel, label)
	}
	return r, nil
}

func (tr *Trace) lookupID(id string) (Ref, bool) {
	k, ok := tr.keyOf(id, false)
	if !ok {
		return 0, false
	}
	return tr.Lookup(k)
}

func (tr *Trace) view(r Ref, id string) Node {
	return Node{Ref: r, ID: id, Type: tr.Type(r), Label: tr.label(r, id)}
}

// Node returns the node with the given id, or nil.
func (tr *Trace) Node(id string) *Node {
	r, ok := tr.lookupID(id)
	if !ok {
		return nil
	}
	n := tr.view(r, id)
	return &n
}

// renderIDs returns every node's id, indexed by Ref.
func (tr *Trace) renderIDs() []string {
	ids := make([]string, len(tr.keys))
	for r := range ids {
		ids[r] = tr.ID(Ref(r))
	}
	return ids
}

// Nodes returns all nodes sorted by id.
func (tr *Trace) Nodes() []*Node { return tr.nodesByID(tr.renderIDs()) }

func (tr *Trace) nodesByID(ids []string) []*Node {
	views := make([]Node, len(ids))
	out := make([]*Node, len(ids))
	for r := range out {
		views[r] = tr.view(Ref(r), ids[r])
		out[r] = &views[r]
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AddEdge connects two existing nodes with a typed, time-annotated edge,
// validating the edge type against the model.
func (tr *Trace) AddEdge(fromID, toID, label string, t Interval) (Edge, error) {
	return tr.AddEdgeTraced(fromID, toID, label, t, "")
}

// AddEdgeTraced is AddEdge with a request-trace annotation: traceID (the
// hex obs.TraceID, "" for none) is stamped on the edge.
func (tr *Trace) AddEdgeTraced(fromID, toID, label string, t Interval, traceID string) (Edge, error) {
	from, ok := tr.lookupID(fromID)
	if !ok {
		return Edge{}, fmt.Errorf("trace: edge source %q does not exist", fromID)
	}
	to, ok := tr.lookupID(toID)
	if !ok {
		return Edge{}, fmt.Errorf("trace: edge target %q does not exist", toID)
	}
	return tr.Link(from, to, label, t, tr.InternString(traceID))
}

// EdgesByTime returns the edges ordered by the shared logical clock
// (interval begin, then end), with node ids and label as tie-breakers.
// Insertion order is arrival order, which is nondeterministic when several
// sessions record into one trace concurrently; rendered traces order by
// time instead so equal executions produce equal artifacts.
func (tr *Trace) EdgesByTime() []Edge { return tr.edgesByTime(tr.renderIDs()) }

func (tr *Trace) edgesByTime(ids []string) []Edge {
	out := append([]Edge(nil), tr.edges...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.T.Begin != b.T.Begin {
			return a.T.Begin < b.T.Begin
		}
		if a.T.End != b.T.End {
			return a.T.End < b.T.End
		}
		if a.From != b.From {
			return ids[a.From] < ids[b.From]
		}
		if a.To != b.To {
			return ids[a.To] < ids[b.To]
		}
		return a.Label < b.Label // the label table is sorted
	})
	return out
}

// depsByID returns the dependency set ordered by (From id, To id).
func (tr *Trace) depsByID(ids []string) []Dep {
	out := tr.Deps()
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return ids[out[i].From] < ids[out[j].From]
		}
		return ids[out[i].To] < ids[out[j].To]
	})
	return out
}

// Out returns the edges leaving node id.
func (tr *Trace) Out(id string) []Edge {
	return tr.incident(id, func(e Edge) Ref { return e.From })
}

// In returns the edges entering node id.
func (tr *Trace) In(id string) []Edge {
	return tr.incident(id, func(e Edge) Ref { return e.To })
}

// incident scans for the edges whose chosen end is node id (callers that
// walk the graph build a Trace.Adjacency instead).
func (tr *Trace) incident(id string, end func(Edge) Ref) []Edge {
	r, ok := tr.lookupID(id)
	if !ok {
		return nil
	}
	var out []Edge
	for _, e := range tr.edges {
		if end(e) == r {
			out = append(out, e)
		}
	}
	return out
}

// AddDep records that entity toID directly depends on entity fromID within
// one provenance model. Both nodes must exist and be entities.
func (tr *Trace) AddDep(fromID, toID string) error {
	from, ok := tr.lookupID(fromID)
	if !ok {
		return fmt.Errorf("trace: dep source %q does not exist", fromID)
	}
	to, ok := tr.lookupID(toID)
	if !ok {
		return fmt.Errorf("trace: dep target %q does not exist", toID)
	}
	return tr.LinkDep(from, to)
}

// HasDep reports whether entity toID was recorded as directly depending on
// entity fromID.
func (tr *Trace) HasDep(fromID, toID string) bool {
	from, ok1 := tr.lookupID(fromID)
	to, ok2 := tr.lookupID(toID)
	if !ok1 || !ok2 {
		return false
	}
	for _, d := range tr.deps {
		if d == (Dep{From: from, To: to}) {
			return true
		}
	}
	return false
}

// State implements Definition 10: the state of node v at time T is the set
// of nodes v' with an edge (v', v) whose interaction began at or before T.
func (tr *Trace) State(id string, t uint64) []*Node {
	var out []*Node
	seen := map[Ref]bool{}
	for _, e := range tr.In(id) {
		if e.T.Begin <= t && !seen[e.From] {
			seen[e.From] = true
			n := tr.view(e.From, tr.ID(e.From))
			out = append(out, &n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
