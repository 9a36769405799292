package engine_test

import (
	"ldv/internal/diskfs"
	"ldv/internal/engine"
	"ldv/internal/faultfs"
	"ldv/internal/osim"
)

// Every filesystem the engine persists through and every clock it stamps by
// meets the one contract; the engine probes for no optional method.
var (
	_ engine.FileSystem = (*osim.FS)(nil)
	_ engine.FileSystem = (*osim.ProcFS)(nil)
	_ engine.FileSystem = (*diskfs.FS)(nil)
	_ engine.FileSystem = (*faultfs.FS)(nil)
	_ engine.Clock      = (*osim.Clock)(nil)
)
