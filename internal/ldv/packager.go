package ldv

import (
	"fmt"
	"sort"
	"strings"

	"ldv/internal/csvrec"
	"ldv/internal/pack"
)

// BuildServerIncluded assembles a server-included package (§VII-D): the
// application's binaries/libraries/input files, the DB server binary and
// libraries, the relevant tuple versions as one CSV per table, the table
// schemas, and the serialized combined execution trace. The server's raw
// data files are NOT included — the relevant subset replaces them.
func BuildServerIncluded(m *Machine, aud *Auditor, apps []App) (*pack.Archive, error) {
	arch := pack.New()
	if err := addAppFiles(arch, m, aud); err != nil {
		return nil, err
	}

	// Server binary and libraries: everything the server process touched
	// outside its data directory.
	for _, path := range aud.ServerFiles() {
		if strings.HasPrefix(path, m.DataDir+"/") || path == m.DataDir {
			continue
		}
		if err := copyFile(arch, m, path); err != nil {
			return nil, fmt.Errorf("package server file: %w", err)
		}
	}

	// Relevant DB subset as one CSV per table — a header, then the records
	// the auditor encoded when each tuple first became relevant — and the
	// schema of every table, relevant tuples or not (the application may
	// insert into any of them on re-execution). One pass over the sorted
	// table names, so equal audits package to equal bytes.
	relevant := aud.relevantTableNames()
	var tables []TableDef
	for _, name := range m.DB.TableNames() {
		t, err := m.DB.Table(name)
		if err != nil {
			return nil, err
		}
		tables = append(tables, TableDefOf(t))
		i := sort.SearchStrings(relevant, name)
		if i == len(relevant) || relevant[i] != name {
			continue
		}
		relevant = append(relevant[:i], relevant[i+1:]...)
		csv := []byte("prov_rowid,prov_v,prov_p")
		for _, col := range t.Schema.Names() {
			csv = append(csv, ',')
			start := len(csv)
			csv = csvrec.Quote(append(csv, col...), start)
		}
		csv = append(csv, '\n')
		arch.Add(ProvDataDir+"/"+name+".csv", aud.appendRelevantCSV(csv, name))
	}
	if len(relevant) > 0 {
		return nil, fmt.Errorf("package provenance: relevant table %q is no longer in the database", relevant[0])
	}

	// Execution trace, stored compressed (metadata, not payload).
	traceData, err := aud.Trace().Marshal()
	if err != nil {
		return nil, fmt.Errorf("package trace: %w", err)
	}
	zipped, err := gzipLevel(traceData, traceGzipLevel)
	if err != nil {
		return nil, fmt.Errorf("package trace: %w", err)
	}
	arch.Add(TracePath, zipped)

	manifest := &Manifest{
		Type:         TypeServerIncluded,
		Database:     m.Database,
		Addr:         m.Addr,
		DataDir:      m.DataDir,
		ServerBinary: ServerBinaryPath,
		ServerLibs:   ServerLibs(),
		Apps:         appManifests(apps),
		Tables:       tables,
	}
	mdata, err := MarshalManifest(manifest)
	if err != nil {
		return nil, err
	}
	arch.Add(ManifestPath, mdata)
	return arch, nil
}

// AddPROVExport adds the PROV-JSON rendering of the trace to a package —
// an optional interchange extra (ldv-audit -prov); the native binary trace
// (TracePath) is what replay and dependency queries consume.
func AddPROVExport(arch *pack.Archive, aud *Auditor) error {
	provData, err := aud.Trace().ExportPROV()
	if err != nil {
		return fmt.Errorf("package PROV export: %w", err)
	}
	arch.Add(ProvJSONPath, provData)
	return nil
}

// BuildServerExcluded assembles a server-excluded package (§VII-D): the
// application's files plus the recorded DB interaction log. No server
// binary, no DB content, and — following §VIII — no execution trace, only
// what re-execution needs.
func BuildServerExcluded(m *Machine, aud *Auditor, apps []App) (*pack.Archive, error) {
	arch := pack.New()
	if err := addAppFiles(arch, m, aud); err != nil {
		return nil, err
	}
	logData, err := MarshalDBLog(aud.DBLog())
	if err != nil {
		return nil, fmt.Errorf("package db log: %w", err)
	}
	zipped, err := gzipBytes(logData)
	if err != nil {
		return nil, fmt.Errorf("package db log: %w", err)
	}
	arch.Add(DBLogPath, zipped)

	manifest := &Manifest{
		Type:     TypeServerExcluded,
		Database: m.Database,
		Addr:     m.Addr,
		Apps:     appManifests(apps),
	}
	mdata, err := MarshalManifest(manifest)
	if err != nil {
		return nil, err
	}
	arch.Add(ManifestPath, mdata)
	return arch, nil
}

func appManifests(apps []App) []AppManifest {
	out := make([]AppManifest, len(apps))
	for i, a := range apps {
		out[i] = AppManifest{Binary: a.Binary, Libs: a.Libs}
	}
	return out
}

// addAppFiles copies every file the application processes read — binaries,
// libraries, and data inputs — mirroring CDE's path-extraction packaging
// (§VII-D). Files the application only wrote are outputs and are excluded:
// re-execution regenerates them. DB data files never appear here because
// application processes do not touch them directly.
func addAppFiles(arch *pack.Archive, m *Machine, aud *Auditor) error {
	read, _ := aud.AppFiles()
	for _, path := range read {
		if strings.HasPrefix(path, m.DataDir+"/") || path == m.DataDir {
			continue
		}
		if err := copyFile(arch, m, path); err != nil {
			return fmt.Errorf("package app file: %w", err)
		}
	}
	return nil
}

// copyFile copies one path from the machine's filesystem into the archive,
// preserving symlinks (and their targets) the way §VII-D re-creates
// sub-directories and symbolic links under the package root.
func copyFile(arch *pack.Archive, m *Machine, path string) error {
	fs := m.Kernel.FS()
	info, err := fs.Stat(path)
	if err != nil {
		return err
	}
	if info.Symlink != "" {
		arch.AddSymlink(path, info.Symlink)
		target := info.Symlink
		if !strings.HasPrefix(target, "/") {
			target = path[:strings.LastIndex(path, "/")+1] + target
		}
		if arch.Has(target) {
			return nil
		}
		return copyFile(arch, m, target)
	}
	if info.Dir {
		return nil
	}
	data, err := fs.ReadFile(path)
	if err != nil {
		return err
	}
	arch.Add(path, data)
	return nil
}
