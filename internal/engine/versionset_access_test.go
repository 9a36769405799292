package engine_test

import (
	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

// versionValues, versionRefs and lineageRefs are the lineage oracle's only
// view of a Result's version set, which keeps the oracle itself independent
// of how the set is represented.
func versionValues(res *engine.Result, ref engine.TupleRef) ([]sqlval.Value, bool) {
	return res.TupleValues.Lookup(ref)
}

func versionRefs(res *engine.Result) []engine.TupleRef { return res.TupleValues.Refs() }

func lineageRefs(res *engine.Result) [][]engine.TupleRef {
	out := make([][]engine.TupleRef, len(res.Lineage))
	for i := range out {
		out[i] = res.LineageRefs(i)
	}
	return out
}
