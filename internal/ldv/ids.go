// Package ldv is the core of light-weight database virtualization: it
// monitors a DB application running on the simulated OS (building the
// combined PBB+PLin execution trace of §VII), determines the relevant DB
// subset via lineage (§VII-D), creates server-included and server-excluded
// re-executable packages, and re-executes packages (§VIII).
package ldv

import (
	"ldv/internal/engine"
	"ldv/internal/prov"
)

// Node-ID conventions for combined execution traces. Inside a trace nodes
// are typed integer keys (prov.Key); these helpers render and parse the
// string form the boundary uses (ldv-trace arguments, DOT, PROV-JSON,
// dependency queries), whose syntax prov.ParseID defines.

// ProcNodeID returns the trace node ID for a process.
func ProcNodeID(pid int) string { return prov.ProcID(uint64(pid)) }

// FileNodeID returns the trace node ID for a file path.
func FileNodeID(path string) string { return prov.FileID(path) }

// TupleNodeID returns the trace node ID for a stored tuple version.
func TupleNodeID(ref engine.TupleRef) string {
	return prov.TupleID(ref.Table, uint64(ref.Row), ref.Version)
}

// FilePathOfNode recovers the path from a file node ID ("" if not a file).
func FilePathOfNode(id string) string {
	if kind, path, _, _ := prov.ParseID(id); kind == prov.KindFile {
		return path
	}
	return ""
}

// TupleRefOfNode recovers the tuple ref from a tuple node ID.
func TupleRefOfNode(id string) (engine.TupleRef, bool) {
	kind, table, row, version := prov.ParseID(id)
	if kind != prov.KindTuple {
		return engine.TupleRef{}, false
	}
	return engine.TupleRef{Table: table, Row: engine.RowID(row), Version: version}, true
}
