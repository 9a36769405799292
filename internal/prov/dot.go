package prov

import (
	"fmt"
	"strings"
)

// ExportDOT renders the trace in Graphviz DOT form, drawn in the paper's
// figure style: processes and SQL statements as boxes (activities), files
// and tuples as ellipses (entities), interaction edges labelled with their
// time intervals, and data dependencies as dashed edges.
func (tr *Trace) ExportDOT() string {
	var sb strings.Builder
	sb.WriteString("digraph trace {\n")
	sb.WriteString("  rankdir=LR;\n")
	sb.WriteString("  node [fontsize=10];\n")
	ids := tr.renderIDs()
	for _, n := range tr.nodesByID(ids) {
		shape := "box"
		if n.IsEntity(tr.Model) {
			shape = "ellipse"
		}
		label := n.Label
		if label == "" {
			label = n.ID
		}
		if len(label) > 40 {
			label = label[:37] + "..."
		}
		fmt.Fprintf(&sb, "  %s [shape=%s, label=%s];\n", dotID(n.ID), shape, dotString(label))
	}
	for _, e := range tr.edgesByTime(ids) {
		fmt.Fprintf(&sb, "  %s -> %s [label=%s];\n",
			dotID(ids[e.From]), dotID(ids[e.To]), dotString(fmt.Sprintf("%s %s", tr.EdgeLabel(e), e.T)))
	}
	for _, d := range tr.depsByID(ids) {
		fmt.Fprintf(&sb, "  %s -> %s [style=dashed, color=gray, label=\"dep\"];\n",
			dotID(ids[d.From]), dotID(ids[d.To]))
	}
	sb.WriteString("}\n")
	return sb.String()
}

// dotID produces a safe DOT identifier for an arbitrary node id.
func dotID(id string) string {
	var sb strings.Builder
	sb.WriteString("n_")
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			sb.WriteRune(r)
		default:
			fmt.Fprintf(&sb, "_%02x", r)
		}
	}
	return sb.String()
}

func dotString(s string) string {
	return `"` + strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s) + `"`
}
