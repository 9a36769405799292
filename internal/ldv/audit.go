package ldv

import (
	"fmt"

	"ldv/internal/obs"
	"ldv/internal/osim"
)

// Audit runs the given applications under full LDV monitoring — the
// `ldv-audit <app>` entry point. It installs the apps, starts the DB
// server (as the first traced step, per §IX-A), runs each app binary in
// order, stops the server, and returns the auditor holding the combined
// execution trace and all packaging inputs.
func Audit(m *Machine, apps []App) (*Auditor, error) {
	return AuditWithOptions(m, apps, AuditOptions{CollectLineage: true})
}

// AuditOptions tune a monitored run.
type AuditOptions struct {
	// CollectLineage enables DB provenance collection. Required for
	// server-included packaging; disable it to reproduce the cheaper
	// server-excluded-only audit configuration of §IX-B.
	CollectLineage bool
	// DisableDedup turns off the duplicate-suppression hash table of §VII-D
	// (ablation only).
	DisableDedup bool
}

// AuditWithOptions is Audit with explicit monitoring options.
func AuditWithOptions(m *Machine, apps []App, opts AuditOptions) (*Auditor, error) {
	// Stamp spans with the machine's logical clock so OS/DB events and
	// observability spans share one timeline for this run.
	obs.Default().SetLogicalClock(m.Kernel.Clock().Now)
	sp := obs.StartSpan("audit.run")
	defer sp.End()
	if err := m.InstallApps(apps); err != nil {
		return nil, err
	}
	aud := NewAuditor(m.Kernel)
	aud.CollectLineage = opts.CollectLineage
	aud.DedupDisabled = opts.DisableDedup
	aud.MarkServerBinary(ServerBinaryPath)
	defer aud.Detach()

	SetRuntime(m.Kernel, &Runtime{Mode: ModeAudit, Addr: m.Addr, Database: m.Database, Auditor: aud})
	defer ClearRuntime(m.Kernel)

	err := m.runApps(m.Kernel.Start("ldv-audit"), apps, appRun{server: true,
		startErr: "audit: start server: %w", appErr: "audit: run %s: %w", stopErr: "audit: stop server: %w"})
	if err != nil {
		return nil, err
	}
	return aud, nil
}

// Run executes the applications without monitoring — the plain-PostgreSQL
// baseline used by the evaluation.
func Run(m *Machine, apps []App) error {
	if err := m.InstallApps(apps); err != nil {
		return err
	}
	SetRuntime(m.Kernel, &Runtime{Mode: ModePlain, Addr: m.Addr, Database: m.Database})
	defer ClearRuntime(m.Kernel)

	return m.runApps(m.Kernel.Start("run"), apps, appRun{server: true,
		startErr: "run: start server: %w", appErr: "run %s: %w"})
}

// appRun says how one entry point runs its applications: whether the DB
// server brackets them, which of them run, and how a failure reads.
type appRun struct {
	server bool                     // start the server first, stop it after
	keep   func(binary string) bool // nil runs every app
	span   *obs.Span                // a replay's run span, given a child per step; nil elsewhere
	// fmt formats for a failure to start the server, to run an app (its
	// binary, then the error) and to stop the server; "" hands the error up
	// as it is.
	startErr, appErr, stopErr string
}

// runApps is the run every entry point performs under its root process:
// start the server, spawn each application in order, stop the server, exit
// the root — stopping at the first application that fails and reporting the
// first error.
func (m *Machine) runApps(root *osim.Process, apps []App, r appRun) error {
	defer root.Exit()
	wrap := func(format string, err error, args ...any) error {
		if format == "" {
			return err
		}
		return fmt.Errorf(format, append(args, err)...)
	}
	if r.server {
		boot := r.span.Child("replay.start_server")
		if err := m.StartServer(root); err != nil {
			return wrap(r.startErr, err)
		}
		boot.End()
	}
	var runErr error
	for _, app := range apps {
		if r.keep != nil && !r.keep(app.Binary) {
			continue
		}
		step := r.span.Child("replay.app").SetAttr("binary", app.Binary)
		err := root.Spawn(app.Binary, app.Libs...)
		step.End()
		if err != nil {
			runErr = wrap(r.appErr, err, app.Binary)
			break
		}
	}
	if r.server {
		if err := m.StopServer(); err != nil && runErr == nil {
			runErr = wrap(r.stopErr, err)
		}
	}
	return runErr
}

// RunApps spawns already-installed applications against an already-running
// runtime/server — the fine-grained primitive the benchmark harness uses to
// time individual steps.
func RunApps(k *osim.Kernel, root *osim.Process, apps []App) error {
	for _, app := range apps {
		if err := root.Spawn(app.Binary, app.Libs...); err != nil {
			return fmt.Errorf("run %s: %w", app.Binary, err)
		}
	}
	return nil
}
