// Package engine implements the LDV relational database engine: versioned
// tuple storage, a volcano-style executor with native Lineage propagation
// (the Perm analog), DML with GProM-style reenactment provenance for
// updates, and persistence of table data into a pluggable filesystem.
//
// Provenance support mirrors the paper's §VII-B schema extension: every
// stored tuple carries the hidden attributes prov_rowid (a database-unique
// row identifier), prov_v (logical timestamp of the version), prov_p (the
// process that created the version), and prov_usedby (the last statement
// that read it). These are addressable as ordinary columns in queries.
package engine

import (
	"fmt"

	"ldv/internal/sqlval"
)

// RowID uniquely identifies a row across the whole database (prov_rowid).
type RowID uint64

// Column describes one column of a table schema.
type Column struct {
	Name       string
	Type       sqlval.Kind
	PrimaryKey bool
}

// Schema is an ordered list of columns.
type Schema struct {
	Columns []Column
}

// ColumnIndex returns the position of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// PrimaryKeyIndex returns the position of the primary-key column, or -1 if
// the table has none.
func (s *Schema) PrimaryKeyIndex() int {
	for i, c := range s.Columns {
		if c.PrimaryKey {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// checkValue validates that v is assignable to column c (NULL is always
// assignable; integers widen to float).
func checkValue(c Column, v sqlval.Value) (sqlval.Value, error) {
	if v.IsNull() {
		return v, nil
	}
	if v.Kind() == c.Type {
		return v, nil
	}
	if c.Type == sqlval.KindFloat && v.Kind() == sqlval.KindInt {
		return sqlval.NewFloat(float64(v.Int())), nil
	}
	if c.Type == sqlval.KindInt && v.Kind() == sqlval.KindFloat {
		f := v.Float()
		if f == float64(int64(f)) {
			return sqlval.NewInt(int64(f)), nil
		}
	}
	return sqlval.Null, fmt.Errorf("value %s (%s) is not assignable to column %s %s",
		v, v.Kind(), c.Name, c.Type)
}

// Hidden provenance column names (§VII-B of the paper).
const (
	ColProvRowID  = "prov_rowid"
	ColProvV      = "prov_v"
	ColProvP      = "prov_p"
	ColProvUsedBy = "prov_usedby"
)

// provColumns is the hidden attributes in layout order: they follow a
// table's schema columns in every stored-tuple layout.
var provColumns = [...]string{ColProvRowID, ColProvV, ColProvP, ColProvUsedBy}

// IsProvColumn reports whether name is one of the hidden provenance
// attributes.
func IsProvColumn(name string) bool {
	switch name {
	case ColProvRowID, ColProvV, ColProvP, ColProvUsedBy:
		return true
	}
	return false
}
