package ldv

import (
	"encoding/json"
	"fmt"
)

// Package member paths.
const (
	ManifestPath = "/ldv/manifest.json"
	TracePath    = "/ldv/trace.bin.gz"
	ProvJSONPath = "/ldv/trace.prov.json"
	DBLogPath    = "/ldv/dblog.bin.gz"
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
	// DataDir is the packaged server's data directory (server-included
	// only): ProvDataDir, whose table files are the relevant DB subset.
	DataDir string `json:"data_dir,omitempty"`

	ServerBinary string   `json:"server_binary,omitempty"`
	ServerLibs   []string `json:"server_libs,omitempty"`

	Apps []AppManifest `json:"apps"`
}

// AppManifest names one application binary and its libraries.
type AppManifest struct {
	Binary string   `json:"binary"`
	Libs   []string `json:"libs,omitempty"`
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
