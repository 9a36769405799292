package ldv

import (
	"encoding/json"
	"fmt"

	"ldv/internal/engine"
	"ldv/internal/sqlval"
)

// Package member paths.
const (
	ManifestPath = "/ldv/manifest.json"
	TracePath    = "/ldv/trace.bin.gz"
	ProvJSONPath = "/ldv/trace.prov.json"
	DBLogPath    = "/ldv/dblog.json.gz"
	ProvDataDir  = "/db/provenance"
)

// Package types.
const (
	TypeServerIncluded = "server-included"
	TypeServerExcluded = "server-excluded"
)

// Manifest describes a re-executable package: what kind it is, how to bring
// up the DB side, and which application binaries to run in order.
type Manifest struct {
	Type     string `json:"type"`
	Database string `json:"database"`
	Addr     string `json:"addr"`
	DataDir  string `json:"data_dir,omitempty"`

	ServerBinary string   `json:"server_binary,omitempty"`
	ServerLibs   []string `json:"server_libs,omitempty"`

	Apps []AppManifest `json:"apps"`

	// Tables records the schemas needed to restore the relevant DB subset
	// (server-included only).
	Tables []TableDef `json:"tables,omitempty"`
}

// AppManifest names one application binary and its libraries.
type AppManifest struct {
	Binary string   `json:"binary"`
	Libs   []string `json:"libs,omitempty"`
}

// TableDef serializes one table schema.
type TableDef struct {
	Name    string      `json:"name"`
	Columns []ColumnDef `json:"columns"`
}

// ColumnDef serializes one column.
type ColumnDef struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	PrimaryKey bool   `json:"primary_key,omitempty"`
}

var kindNames = map[sqlval.Kind]string{
	sqlval.KindInt:    "INTEGER",
	sqlval.KindFloat:  "FLOAT",
	sqlval.KindString: "TEXT",
	sqlval.KindBool:   "BOOLEAN",
	sqlval.KindDate:   "DATE",
}

var kindsByName = func() map[string]sqlval.Kind {
	m := map[string]sqlval.Kind{}
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// TableDefOf captures a table's schema.
func TableDefOf(t engine.TableMeta) TableDef {
	def := TableDef{Name: t.Name}
	for _, c := range t.Schema.Columns {
		def.Columns = append(def.Columns, ColumnDef{
			Name: c.Name, Kind: kindNames[c.Type], PrimaryKey: c.PrimaryKey,
		})
	}
	return def
}

// Schema converts the definition back to an engine schema.
func (d TableDef) Schema() (engine.Schema, error) {
	var s engine.Schema
	for _, c := range d.Columns {
		kind, ok := kindsByName[c.Kind]
		if !ok {
			return s, fmt.Errorf("table %s: unknown column kind %q", d.Name, c.Kind)
		}
		s.Columns = append(s.Columns, engine.Column{Name: c.Name, Type: kind, PrimaryKey: c.PrimaryKey})
	}
	return s, nil
}

// MarshalManifest serializes a manifest.
func MarshalManifest(m *Manifest) ([]byte, error) { return json.MarshalIndent(m, "", " ") }

// UnmarshalManifest parses a manifest.
func UnmarshalManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	switch m.Type {
	case TypeServerIncluded, TypeServerExcluded:
	default:
		return nil, fmt.Errorf("manifest: unknown package type %q", m.Type)
	}
	return &m, nil
}
