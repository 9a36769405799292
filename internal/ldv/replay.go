package ldv

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ldv/internal/csvrec"
	"ldv/internal/engine"
	"ldv/internal/obs"
	"ldv/internal/osim"
	"ldv/internal/pack"
)

// ReplaySetup is a machine prepared from a package, ready to re-execute the
// recorded applications — the state after `ldv-exec`'s initialization phase
// (the cost Figure 7b charges to "Initialization").
type ReplaySetup struct {
	Machine  *Machine
	Manifest *Manifest
	Replayer *Replayer // server-excluded only
	Apps     []App
}

// PrepareReplay extracts a package into a fresh simulated machine and, for
// server-included packages, restores the relevant DB subset from the
// provenance CSVs (§VIII: "we restore these tuples before any query
// occurs"). The appPrograms map supplies the behaviour for each binary path
// in the manifest — the simulation's stand-in for loading machine code.
func PrepareReplay(arch *pack.Archive, appPrograms map[string]osim.Program) (*ReplaySetup, error) {
	prep := obs.StartSpan("replay.prepare")
	defer prep.End()
	mdata, err := arch.Read(ManifestPath)
	if err != nil {
		return nil, fmt.Errorf("replay: package has no manifest: %w", err)
	}
	manifest, err := UnmarshalManifest(mdata)
	if err != nil {
		return nil, err
	}
	prep.SetAttr("type", string(manifest.Type))

	k := osim.NewKernel()
	obs.Default().SetLogicalClock(k.Clock().Now)
	extract := prep.Child("replay.extract")
	if err := arch.ExtractTo(k.FS(), "/"); err != nil {
		return nil, fmt.Errorf("replay: extract: %w", err)
	}
	extract.End()

	var apps []App
	for _, am := range manifest.Apps {
		prog, ok := appPrograms[am.Binary]
		if !ok {
			return nil, fmt.Errorf("replay: no program registered for %s", am.Binary)
		}
		apps = append(apps, App{Binary: am.Binary, Libs: am.Libs, Prog: prog})
	}

	setup := &ReplaySetup{Manifest: manifest, Apps: apps}
	switch manifest.Type {
	case TypeServerIncluded:
		db := engine.NewDB(k.Clock())
		for _, td := range manifest.Tables {
			schema, err := td.Schema()
			if err != nil {
				return nil, err
			}
			if err := db.CreateTableFromSchema(td.Name, schema); err != nil {
				return nil, err
			}
		}
		restore := prep.Child("replay.restore_tuples")
		if err := restoreTuples(arch, db, manifest); err != nil {
			return nil, err
		}
		restore.End()
		m := NewMachineForReplay(k, db, manifest.Addr, manifest.DataDir, manifest.Database)
		m.RegisterApps(apps)
		setup.Machine = m
		SetRuntime(k, &Runtime{Mode: ModePlain, Addr: m.Addr, Database: m.Database})
	case TypeServerExcluded:
		sessions, err := ReadDBLog(arch)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		setup.Replayer = NewReplayer(sessions)
		m := &Machine{Kernel: k, Addr: manifest.Addr, Database: manifest.Database}
		m.RegisterApps(apps)
		setup.Machine = m
		SetRuntime(k, &Runtime{
			Mode: ModeReplayExcluded, Addr: manifest.Addr,
			Database: manifest.Database, Replayer: setup.Replayer,
		})
	default:
		return nil, fmt.Errorf("replay: unknown package type %q", manifest.Type)
	}
	return setup, nil
}

// restoreTuples loads every provenance CSV into the database, preserving
// the original row ids and versions so the restored tuple versions are the
// ones the trace references. Each file is one RestoreRows batch, its
// records streamed through a reused record rather than read whole.
func restoreTuples(arch *pack.Archive, db *engine.DB, manifest *Manifest) error {
	for _, path := range arch.PathsUnder(ProvDataDir) {
		table := strings.TrimSuffix(path[strings.LastIndex(path, "/")+1:], ".csv")
		data, err := arch.Read(path)
		if err != nil {
			return err
		}
		r := csvrec.Reader{Data: data}
		if _, err := r.Read(); err == io.EOF {
			continue // no header: an empty member
		} else if err != nil {
			return fmt.Errorf("restore %s: %w", table, err)
		}
		// Every record ends a line, so the line count bounds the row count
		// (quoted line breaks only make it generous).
		hint := bytes.Count(data, []byte{'\n'})
		err = db.RestoreRows(table, hint, func(row *engine.RestoredRow) (bool, error) {
			rec, err := r.Read()
			if err == io.EOF {
				return false, nil
			}
			if err != nil {
				return false, err
			}
			if len(rec) < 3 {
				return false, fmt.Errorf("short record")
			}
			id, err := strconv.ParseUint(rec[0], 10, 64)
			if err != nil {
				return false, fmt.Errorf("bad rowid %q", rec[0])
			}
			if row.Version, err = strconv.ParseUint(rec[1], 10, 64); err != nil {
				return false, fmt.Errorf("bad version %q", rec[1])
			}
			row.ID, row.Proc = engine.RowID(id), rec[2]
			row.Vals, err = appendRowCells(row.Vals[:0], rec[3:])
			return err == nil, err
		})
		if err != nil {
			return fmt.Errorf("restore %s: %w", table, err)
		}
	}
	return nil
}

// Run re-executes the package's applications: for server-included packages
// it starts the packaged server first and stops it after; for
// server-excluded packages the apps run against the replayer alone.
func (s *ReplaySetup) Run() error {
	run := obs.StartSpan("replay.run").SetAttr("type", string(s.Manifest.Type))
	defer run.End()
	return s.Machine.runApps(s.Machine.Kernel.Start("ldv-exec"), s.Apps, appRun{
		server: s.Manifest.Type == TypeServerIncluded, span: run,
		startErr: "replay: start packaged server: %w", appErr: "replay %s: %w"})
}

// Replay is the one-call `ldv-exec` equivalent: prepare, run, and return
// the machine for output inspection.
func Replay(arch *pack.Archive, appPrograms map[string]osim.Program) (*Machine, error) {
	setup, err := PrepareReplay(arch, appPrograms)
	if err != nil {
		return nil, err
	}
	defer ClearRuntime(setup.Machine.Kernel)
	if err := setup.Run(); err != nil {
		return nil, err
	}
	return setup.Machine, nil
}
