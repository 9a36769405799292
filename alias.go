package ldv

import (
	ildv "ldv/internal/ldv"

	"ldv/internal/client"
	"ldv/internal/engine"
	"ldv/internal/pack"
)

// Conn is a client connection to the LDV database (the libpq analog).
type Conn = client.Conn

// Result is the outcome of one SQL statement.
type Result = engine.Result

// DB is the embedded relational engine, exposed for data loading and
// inspection.
type DB = engine.DB

// ExecOptions control direct statement execution against a DB.
type ExecOptions = engine.ExecOptions

// TupleRef identifies one tuple version (table, row id, version).
type TupleRef = engine.TupleRef

// AddPROVExport embeds a PROV-JSON rendering of the audit trace into a
// package (optional interchange extra).
func AddPROVExport(arch *Archive, aud *Auditor) error {
	return ildv.AddPROVExport(arch, aud)
}

// NewArchive returns an empty package archive. Archive.Add takes ownership
// of the data it is given without copying it: the caller must not modify or
// reuse that buffer afterwards.
func NewArchive() *Archive { return pack.New() }

// LoadArchive reads a serialized package from the real filesystem.
func LoadArchive(path string) (*Archive, error) { return pack.Load(path) }

// UnmarshalArchive parses a serialized package. The archive's members alias
// data rather than copy it: the caller must not modify data afterwards.
func UnmarshalArchive(data []byte) (*Archive, error) { return pack.Unmarshal(data) }
