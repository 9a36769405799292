// Package prov implements the paper's generic provenance framework
// (Definitions 1–6): provenance models (typed activities, entities, and
// edge types), execution traces (typed graphs whose edges carry logical-time
// intervals), the concrete PBB (blackbox process) and PLin (lineage) models,
// their combination, and a PROV-style JSON serialization.
package prov

import "fmt"

// Model is a provenance model P = (A, E, L): activity types, entity types,
// and admissible edge types (Definition 1).
type Model struct {
	// Name identifies the model (e.g. "PBB", "PLin", "PBB+PLin").
	Name string
	// Activities and Entities are the admissible node type labels.
	Activities map[string]bool
	Entities   map[string]bool
	// EdgeTypes lists the admissible (label, from-type, to-type) triples.
	EdgeTypes []EdgeType
}

// EdgeType is one element of L: an edge label with its endpoint types.
// Edges are directed along information flow: the paper draws a readFrom
// edge from the file to the reading process.
type EdgeType struct {
	Label string
	From  string
	To    string
}

// IsActivity reports whether typ is an activity type of the model.
func (m *Model) IsActivity(typ string) bool { return m.Activities[typ] }

// IsEntity reports whether typ is an entity type of the model.
func (m *Model) IsEntity(typ string) bool { return m.Entities[typ] }

// ValidEdge reports whether an edge with the given label may connect nodes
// of the given types.
func (m *Model) ValidEdge(label, fromType, toType string) bool {
	for _, et := range m.EdgeTypes {
		if et.Label == label && et.From == fromType && et.To == toType {
			return true
		}
	}
	return false
}

// Node type labels used by the concrete models.
const (
	TypeProcess = "process"
	TypeFile    = "file"
	TypeQuery   = "query"
	TypeInsert  = "insert"
	TypeUpdate  = "update"
	TypeDelete  = "delete"
	TypeTuple   = "tuple"
)

// Edge labels used by the concrete models.
const (
	// PBB (Definition 3).
	EdgeReadFrom   = "readFrom"   // file -> process; also tuple -> process in the combined model
	EdgeHasWritten = "hasWritten" // process -> file
	EdgeExecuted   = "executed"   // process -> process
	// PLin (Definition 4).
	EdgeHasRead     = "hasRead"     // tuple -> statement
	EdgeHasReturned = "hasReturned" // statement -> tuple
	// Combined (Definition 5).
	EdgeRun = "run" // process -> statement
)

// statementTypes are the PLin activity types.
var statementTypes = []string{TypeQuery, TypeInsert, TypeUpdate, TypeDelete}

// Blackbox returns the PBB model of Definition 3: processes and files with
// readFrom, hasWritten, and executed edges.
func Blackbox() *Model {
	return &Model{
		Name:       "PBB",
		Activities: map[string]bool{TypeProcess: true},
		Entities:   map[string]bool{TypeFile: true},
		EdgeTypes: []EdgeType{
			{EdgeReadFrom, TypeFile, TypeProcess},
			{EdgeHasWritten, TypeProcess, TypeFile},
			{EdgeExecuted, TypeProcess, TypeProcess},
		},
	}
}

// Lineage returns the PLin model of Definition 4: SQL statements and tuples
// with hasRead and hasReturned edges.
func Lineage() *Model {
	m := &Model{
		Name:       "PLin",
		Activities: map[string]bool{},
		Entities:   map[string]bool{TypeTuple: true},
	}
	for _, st := range statementTypes {
		m.Activities[st] = true
		m.EdgeTypes = append(m.EdgeTypes,
			EdgeType{EdgeHasRead, TypeTuple, st},
			EdgeType{EdgeHasReturned, st, TypeTuple},
		)
	}
	return m
}

// Combined merges an OS and a DB model per Definition 5, adding the
// cross-model edges run(A_OS, A_DB) and readFrom(E_DB, A_OS).
func Combined(os, db *Model) (*Model, error) {
	m := &Model{
		Name:       os.Name + "+" + db.Name,
		Activities: map[string]bool{},
		Entities:   map[string]bool{},
	}
	for t := range os.Activities {
		m.Activities[t] = true
	}
	for t := range db.Activities {
		if m.Activities[t] {
			return nil, fmt.Errorf("combined model: activity type %q in both models", t)
		}
		m.Activities[t] = true
	}
	for t := range os.Entities {
		m.Entities[t] = true
	}
	for t := range db.Entities {
		if m.Entities[t] {
			return nil, fmt.Errorf("combined model: entity type %q in both models", t)
		}
		m.Entities[t] = true
	}
	m.EdgeTypes = append(m.EdgeTypes, os.EdgeTypes...)
	m.EdgeTypes = append(m.EdgeTypes, db.EdgeTypes...)
	for aos := range os.Activities {
		for adb := range db.Activities {
			m.EdgeTypes = append(m.EdgeTypes, EdgeType{EdgeRun, aos, adb})
		}
		for edb := range db.Entities {
			m.EdgeTypes = append(m.EdgeTypes, EdgeType{EdgeReadFrom, edb, aos})
		}
	}
	return m, nil
}

// CombinedDefault returns the PBB+PLin model used by the LDV prototype.
func CombinedDefault() *Model {
	m, err := Combined(Blackbox(), Lineage())
	if err != nil {
		// The concrete models are disjoint by construction.
		panic(err)
	}
	return m
}
