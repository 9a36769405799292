package engine

import (
	"reflect"
	"testing"

	"ldv/internal/sqlval"
)

func TestNewVersionSetOrdersAndDeduplicates(t *testing.T) {
	v := func(n int64) []sqlval.Value { return []sqlval.Value{sqlval.NewInt(n)} }
	a1, a2, b1 := TupleRef{"a", 1, 5}, TupleRef{"a", 2, 3}, TupleRef{"b", 1, 1}
	a1old := TupleRef{"a", 1, 4}

	// Set order is adopted without touching the slices.
	refs, vals := []TupleRef{a1old, a1, a2, b1}, [][]sqlval.Value{v(0), v(1), v(2), v(3)}
	s := NewVersionSet(refs, vals)
	if s.Len() != 4 || &s.Refs()[0] != &refs[0] || &s.Values()[0] != &vals[0] {
		t.Fatalf("ordered input was not adopted: %v", s.Refs())
	}

	// Anything else is sorted; the first entry for a version wins.
	s = NewVersionSet([]TupleRef{b1, a2, a1, a2, a1old}, [][]sqlval.Value{v(3), v(2), v(1), v(99), v(0)})
	if want := []TupleRef{a1old, a1, a2, b1}; !reflect.DeepEqual(s.Refs(), want) {
		t.Fatalf("refs = %v, want %v", s.Refs(), want)
	}
	for i, ref := range s.Refs() {
		got, ok := s.Lookup(ref)
		if !ok || got[0].Int() != int64(i) || s.Values()[i][0].Int() != int64(i) {
			t.Errorf("Lookup(%v) = %v, %v; want value %d", ref, got, ok, i)
		}
	}
	for _, miss := range []TupleRef{{"a", 1, 6}, {"", 0, 0}, {"c", 1, 1}, {"a", 3, 1}} {
		if _, ok := s.Lookup(miss); ok {
			t.Errorf("Lookup(%v) found a version that is not in the set", miss)
		}
	}
	if _, ok := (VersionSet{}).Lookup(a1); ok || (VersionSet{}).Len() != 0 {
		t.Error("the zero VersionSet must be empty")
	}
}
