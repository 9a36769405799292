package ldv

import (
	"fmt"

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

// PrepareReplay extracts a package into a fresh simulated machine. For a
// server-included package that is all the restore there is (§VIII: "we
// restore these tuples before any query occurs"): the package's data
// directory holds the relevant DB subset as table files, and the packaged
// server's start in Run loads them into the machine's empty database —
// digests verified, every row checked as an INSERT checks it. The
// appPrograms map supplies the behaviour for each binary path in the
// manifest — the simulation's stand-in for loading machine code.
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
		m := NewMachineForReplay(k, engine.NewDB(k.Clock()), manifest.Addr, manifest.DataDir, manifest.Database)
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

// Run re-executes the package's applications: for server-included packages
// it starts the packaged server first — the start restores the relevant
// subset — and stops it after, which writes back only the tables the
// applications changed; for server-excluded packages the apps run against
// the replayer alone, and must consume everything it recorded.
func (s *ReplaySetup) Run() error {
	run := obs.StartSpan("replay.run").SetAttr("type", string(s.Manifest.Type))
	defer run.End()
	err := s.Machine.runApps(s.Machine.Kernel.Start("ldv-exec"), s.Apps, appRun{
		server: s.Manifest.Type == TypeServerIncluded, span: run,
		startErr: "replay: start packaged server: %w", appErr: "replay %s: %w"})
	if err == nil && s.Replayer != nil {
		err = s.Replayer.Done()
	}
	return err
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
