// Package deps implements the paper's data-dependency machinery: direct
// dependencies of the Lineage model (Definition 7) and the blackbox process
// model (Definition 8), and the temporally-restricted cross-model dependency
// inference of Definition 11, which is sound and complete with respect to
// the dependency axioms of Definition 9 (Theorem 1).
package deps

import (
	"container/heap"
	"sort"

	"ldv/internal/prov"
)

// Pair states that Entity depends on DependsOn.
type Pair struct {
	Entity    string
	DependsOn string
}

// Set is a set of dependency pairs.
type Set map[Pair]bool

// Add inserts a pair.
func (s Set) Add(entity, dependsOn string) { s[Pair{Entity: entity, DependsOn: dependsOn}] = true }

// Has reports membership.
func (s Set) Has(entity, dependsOn string) bool {
	return s[Pair{Entity: entity, DependsOn: dependsOn}]
}

// Sorted returns the pairs in deterministic order.
func (s Set) Sorted() []Pair {
	out := make([]Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Entity != out[j].Entity {
			return out[i].Entity < out[j].Entity
		}
		return out[i].DependsOn < out[j].DependsOn
	})
	return out
}

// pairKey packs "entity depends on dependsOn" for the integer-keyed sets.
func pairKey(entity, dependsOn prov.Ref) uint64 { return uint64(entity)<<32 | uint64(dependsOn) }

// render converts an integer-keyed dependency set to string ids.
func render(tr *prov.Trace, pairs map[uint64]struct{}) Set {
	out := make(Set, len(pairs))
	for p := range pairs {
		out.Add(tr.ID(prov.Ref(p>>32)), tr.ID(prov.Ref(uint32(p))))
	}
	return out
}

// LineageDeps returns the PLin direct dependencies D(G) recorded on the
// trace (Definition 7): a result tuple depends on every input tuple in its
// Lineage.
func LineageDeps(tr *prov.Trace) Set {
	pairs := map[uint64]struct{}{}
	addLineageDeps(tr, pairs)
	return render(tr, pairs)
}

func addLineageDeps(tr *prov.Trace, pairs map[uint64]struct{}) {
	for _, d := range tr.Deps() {
		pairs[pairKey(d.To, d.From)] = struct{}{}
	}
}

// BlackboxDeps computes the PBB direct dependencies D(G) of Definition 8:
// file f depends on file f' when the trace contains a path
// f' -> P1 -> ... -> Pn -> f in which the process chain is connected by
// executed edges, P1 read f', and Pn wrote f. The definition is
// deliberately conservative — no temporal reasoning here; that is the
// inference layer's job.
func BlackboxDeps(tr *prov.Trace) Set {
	pairs := map[uint64]struct{}{}
	addBlackboxDeps(tr, tr.Adjacency(), pairs)
	return render(tr, pairs)
}

func addBlackboxDeps(tr *prov.Trace, adj *prov.Adjacency, pairs map[uint64]struct{}) {
	edges := tr.Edges()
	// visited[p] == src+1 marks process p as reached from file src.
	visited := make([]uint32, tr.NodeCount())
	var queue []prov.Ref
	for n := 0; n < tr.NodeCount(); n++ {
		src := prov.Ref(n)
		if tr.Type(src) != prov.TypeFile {
			continue
		}
		// BFS over process chains starting from processes that read src.
		visit := func(p prov.Ref) {
			if visited[p] != uint32(src)+1 {
				visited[p] = uint32(src) + 1
				queue = append(queue, p)
			}
		}
		queue = queue[:0]
		for _, ei := range adj.Out(src) {
			if e := edges[ei]; tr.EdgeLabel(e) == prov.EdgeReadFrom && tr.Type(e.To) == prov.TypeProcess {
				visit(e.To)
			}
		}
		for len(queue) > 0 {
			pid := queue[0]
			queue = queue[1:]
			for _, ei := range adj.Out(pid) {
				e := edges[ei]
				switch label := tr.EdgeLabel(e); {
				case label == prov.EdgeExecuted && tr.Type(e.To) == prov.TypeProcess:
					visit(e.To)
				case label == prov.EdgeHasWritten && tr.Type(e.To) == prov.TypeFile:
					pairs[pairKey(e.To, src)] = struct{}{}
				}
			}
		}
	}
}

func directDeps(tr *prov.Trace, adj *prov.Adjacency) map[uint64]struct{} {
	pairs := map[uint64]struct{}{}
	addBlackboxDeps(tr, adj, pairs)
	addLineageDeps(tr, pairs)
	return pairs
}

// Inferencer evaluates the temporally-restricted dependency inference of
// Definition 11 over a combined execution trace. It works on the trace's
// integer node indices and indexes the edges the trace holds when it is
// built; string ids appear only in its exported signatures.
type Inferencer struct {
	trace  *prov.Trace
	adj    *prov.Adjacency
	direct map[uint64]struct{} // pairKey(entity, dependsOn)
	// model tags each node with an opaque number for its entity type's
	// provenance model; entities with equal tags are "from the same
	// provenance model" for condition 1.
	model []int
	// Naive disables the temporal conditions (2) and (3), leaving pure
	// path-plus-direct-dependency reachability. Used only by the ablation
	// study quantifying how much the temporal pruning buys.
	Naive bool
}

// NewInferencer builds an inferencer for a trace whose entities come from
// the given sequence of models (each model's entity types share a tag).
// direct is normally the union of LineageDeps and BlackboxDeps but may be
// customized (the paper's Figure 6c posits a trace where a same-model
// dependency is absent).
func NewInferencer(tr *prov.Trace, direct Set, models ...*prov.Model) *Inferencer {
	pairs := make(map[uint64]struct{}, len(direct))
	for p := range direct {
		e, d := tr.Node(p.Entity), tr.Node(p.DependsOn)
		if e != nil && d != nil {
			pairs[pairKey(e.Ref, d.Ref)] = struct{}{}
		}
	}
	return newInferencer(tr, tr.Adjacency(), pairs, models)
}

func newInferencer(tr *prov.Trace, adj *prov.Adjacency, direct map[uint64]struct{}, models []*prov.Model) *Inferencer {
	tags := map[string]int{}
	for i, m := range models {
		for t := range m.Entities {
			tags[t] = i
		}
	}
	model := make([]int, tr.NodeCount())
	for n := range model {
		model[n] = tags[tr.Type(prov.Ref(n))]
	}
	return &Inferencer{trace: tr, adj: adj, direct: direct, model: model}
}

// NewDefaultInferencer wires the standard PBB+PLin combination with direct
// dependencies taken from the trace itself.
func NewDefaultInferencer(tr *prov.Trace) *Inferencer {
	adj := tr.Adjacency()
	return newInferencer(tr, adj, directDeps(tr, adj), []*prov.Model{prov.Blackbox(), prov.Lineage()})
}

// node resolves an id to a node the inferencer was built over; nodes added
// to the trace since then are not found.
func (inf *Inferencer) node(id string) (prov.Ref, bool) {
	n := inf.trace.Node(id)
	if n == nil || int(n.Ref) >= len(inf.model) {
		return 0, false
	}
	return n.Ref, true
}

// entity resolves an id to an entity node.
func (inf *Inferencer) entity(id string) (prov.Ref, bool) {
	r, ok := inf.node(id)
	return r, ok && inf.trace.IsEntity(r)
}

// state is one node of the search space: a trace node plus the last entity
// seen on the path (condition 1 needs it at the next entity).
type state struct {
	node, lastEntity prov.Ref
}

func (s state) key() uint64 { return uint64(s.node)<<32 | uint64(s.lastEntity) }

// item is a priority-queue entry ordered by arrival time; smaller arrival
// times are strictly more permissive, so a Dijkstra-style expansion finds
// the minimal feasible arrival per state.
type item struct {
	st      state
	arrival uint64
}

type queue []item

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i].arrival < q[j].arrival }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(item)) }
func (q *queue) Pop() any          { old := *q; n := len(old); it := old[n-1]; *q = old[:n-1]; return it }

// noStop is the stop argument of a propagate that runs to completion; no
// trace has a node with this index.
const noStop = ^prov.Ref(0)

// propagate runs the Definition 11 search from entity source: it returns
// every other entity the flow reaches with its earliest feasible arrival
// time. The search ends early, reporting stopped, if it expands node stop.
func (inf *Inferencer) propagate(source, stop prov.Ref) (result map[prov.Ref]uint64, stopped bool) {
	tr, edges := inf.trace, inf.trace.Edges()
	result = map[prov.Ref]uint64{}
	start := state{node: source, lastEntity: source}
	best := map[uint64]uint64{start.key(): 0}
	q := &queue{{st: start, arrival: 0}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(item)
		if cur.arrival > best[cur.st.key()] {
			continue // stale entry
		}
		if cur.st.node == stop {
			return result, true
		}
		for _, ei := range inf.adj.Out(cur.st.node) {
			e := edges[ei]
			// Condition 2: the information present at the source endpoint must
			// still be able to flow before the interaction ends.
			if !inf.Naive && cur.arrival > e.T.End {
				continue
			}
			arrival := maxU64(cur.arrival, e.T.Begin)
			if inf.Naive {
				arrival = 0
			}
			next := state{node: e.To, lastEntity: cur.st.lastEntity}
			if tr.IsEntity(e.To) {
				le := cur.st.lastEntity
				// Condition 1: adjacent entities from the same model on the
				// path must be directly data dependent.
				if inf.model[le] == inf.model[e.To] {
					if _, ok := inf.direct[pairKey(e.To, le)]; !ok {
						continue
					}
				}
				next.lastEntity = e.To
				if e.To != source {
					if prev, ok := result[e.To]; !ok || arrival < prev {
						result[e.To] = arrival
					}
				}
			}
			if prev, ok := best[next.key()]; !ok || arrival < prev {
				best[next.key()] = arrival
				heap.Push(q, item{st: next, arrival: arrival})
			}
		}
	}
	return result, false
}

// Dependents returns every entity that depends on source according to
// Definition 11, together with the earliest feasible arrival time of the
// information flow (the T at which the dependency first holds).
func (inf *Inferencer) Dependents(source string) map[string]uint64 {
	out := map[string]uint64{}
	src, ok := inf.entity(source)
	if !ok {
		return out
	}
	reached, _ := inf.propagate(src, noStop)
	for r, at := range reached {
		out[inf.trace.ID(r)] = at
	}
	return out
}

// DependsOn answers the reachability query "does entity depend on
// dependsOn" (the d -> d' question from the paper's introduction).
func (inf *Inferencer) DependsOn(entity, dependsOn string) bool {
	e, found := inf.node(entity)
	src, ok := inf.entity(dependsOn)
	if !found || !ok {
		return false
	}
	reached, _ := inf.propagate(src, noStop)
	_, ok = reached[e]
	return ok
}

// Dependencies returns every entity the given entity depends on.
func (inf *Inferencer) Dependencies(entity string) []string {
	e, found := inf.node(entity)
	if !found {
		return nil
	}
	var out []string
	for n := range inf.model {
		src := prov.Ref(n)
		if !inf.trace.IsEntity(src) || src == e {
			continue
		}
		reached, _ := inf.propagate(src, noStop)
		if _, ok := reached[e]; ok {
			out = append(out, inf.trace.ID(src))
		}
	}
	sort.Strings(out)
	return out
}

// All computes the full inferred dependency set D*(G).
func (inf *Inferencer) All() Set {
	out := Set{}
	for n := range inf.model {
		src := prov.Ref(n)
		if !inf.trace.IsEntity(src) {
			continue
		}
		reached, _ := inf.propagate(src, noStop)
		if len(reached) == 0 {
			continue
		}
		srcID := inf.trace.ID(src)
		for dep := range reached {
			out.Add(inf.trace.ID(dep), srcID)
		}
	}
	return out
}

// ActivityDependsOn reports whether the state of the given activity ever
// comes to depend on the entity — the relevance condition LDV packaging
// uses (§VII-D): a tuple is relevant if some activity's state depends on it.
func (inf *Inferencer) ActivityDependsOn(activity, entity string) bool {
	src, ok := inf.entity(entity)
	act, found := inf.node(activity)
	if !ok || !found || inf.trace.IsEntity(act) {
		return false
	}
	// The same propagation, looking for the activity among the reached states.
	_, reached := inf.propagate(src, act)
	return reached
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
