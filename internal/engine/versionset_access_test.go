package engine_test

import (
	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

// versionValues and versionRefs are the lineage oracle's only view of a
// Result's version set, which keeps the oracle itself independent of how
// the set is represented.
func versionValues(res *engine.Result, ref engine.TupleRef) ([]sqlval.Value, bool) {
	return res.TupleValues.Lookup(ref)
}

func versionRefs(res *engine.Result) []engine.TupleRef { return res.TupleValues.Refs() }
