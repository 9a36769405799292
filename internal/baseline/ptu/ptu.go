// Package ptu implements the PTU baseline of the paper's evaluation: an
// application-virtualization packager (in the lineage of CDE/PTU) that
// monitors syscalls, builds an OS-only (PBB) provenance graph, and copies
// every file any traced process touched into the package — including the DB
// server binaries AND the full database data files, which is exactly why
// PTU packages dwarf LDV packages in Figure 9.
package ptu

import (
	"fmt"
	"strings"
	"sync"

	"ldv/internal/engine"
	"ldv/internal/ldv"
	"ldv/internal/osim"
	"ldv/internal/pack"
	"ldv/internal/prov"
)

// Tracer records the file accesses and process structure of everything
// running on the machine (PTU does not distinguish server from app — both
// are just traced processes).
type Tracer struct {
	mu     sync.Mutex
	kernel *osim.Kernel
	trace  *prov.Trace
	opens  map[openKey][]uint64
	files  map[string]bool
	execd  map[string]bool // binaries that were spawned, in path form
	// snaps holds file contents captured at first read — PTU copies files
	// into its provenance store when they are accessed, so a file that is
	// later modified ships in its pre-modification state. This is what makes
	// PTU replay of the DB repeatable when the server is started inside the
	// trace (§IX-A): the data files are captured as of server start.
	snaps map[string][]byte
}

type openKey struct {
	pid   int
	path  string
	write bool
}

// NewTracer attaches a PTU monitor to the kernel.
func NewTracer(k *osim.Kernel) *Tracer {
	t := &Tracer{
		kernel: k,
		trace:  prov.NewTrace(prov.Blackbox()),
		opens:  map[openKey][]uint64{},
		files:  map[string]bool{},
		execd:  map[string]bool{},
		snaps:  map[string][]byte{},
	}
	k.Trace(t)
	return t
}

// OnEvent implements osim.Tracer.
func (t *Tracer) OnEvent(ev osim.Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch ev.Kind {
	case osim.EvSpawn:
		t.execd[ev.Path] = true
		child := t.proc(ev.PID)
		parent := t.proc(ev.PPID)
		_, _ = t.trace.Link(parent, child, prov.EdgeExecuted, prov.Point(ev.Time), 0)
	case osim.EvOpen:
		key := openKey{ev.PID, ev.Path, ev.Write}
		t.opens[key] = append(t.opens[key], ev.Time)
		if !ev.Write {
			if _, done := t.snaps[ev.Path]; !done {
				if data, err := t.kernel.FS().ReadFile(ev.Path); err == nil {
					t.snaps[ev.Path] = data
				}
			}
		}
	case osim.EvClose:
		key := openKey{ev.PID, ev.Path, ev.Write}
		stack := t.opens[key]
		if len(stack) == 0 {
			return
		}
		openT := stack[0]
		if len(stack) == 1 {
			delete(t.opens, key)
		} else {
			t.opens[key] = stack[1:]
		}
		t.files[ev.Path] = true
		p := t.proc(ev.PID)
		f, _ := t.trace.Intern(t.trace.FileKey(ev.Path), prov.TypeFile)
		iv := prov.Interval{Begin: openT, End: ev.Time}
		if ev.Write {
			_, _ = t.trace.Link(p, f, prov.EdgeHasWritten, iv, 0)
		} else {
			_, _ = t.trace.Link(f, p, prov.EdgeReadFrom, iv, 0)
		}
	}
}

// proc returns the trace node of a process; the type is part of the
// blackbox model, so Intern cannot fail.
func (t *Tracer) proc(pid int) prov.Ref {
	r, _ := t.trace.Intern(prov.ProcKey(pid), prov.TypeProcess)
	return r
}

// Trace returns the OS-level provenance graph PTU ships for validation.
func (t *Tracer) Trace() *prov.Trace { return t.trace }

// Files returns every path a traced process opened.
func (t *Tracer) Files() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, 0, len(t.files))
	for p := range t.files {
		out = append(out, p)
	}
	return out
}

// Audit runs the applications under PTU monitoring: server started first
// and stopped last so its binaries and data files are captured (§IX-A).
func Audit(m *ldv.Machine, apps []ldv.App) (*Tracer, error) {
	if err := m.InstallApps(apps); err != nil {
		return nil, err
	}
	t := NewTracer(m.Kernel)
	defer m.Kernel.Detach(t)

	ldv.SetRuntime(m.Kernel, &ldv.Runtime{Mode: ldv.ModePlain, Addr: m.Addr, Database: m.Database})
	defer ldv.ClearRuntime(m.Kernel)

	root := m.Kernel.Start("ptu-audit")
	if err := m.StartServer(root); err != nil {
		return nil, fmt.Errorf("ptu: start server: %w", err)
	}
	var runErr error
	for _, app := range apps {
		if err := root.Spawn(app.Binary, app.Libs...); err != nil {
			runErr = fmt.Errorf("ptu: run %s: %w", app.Binary, err)
			break
		}
	}
	if err := m.StopServer(); err != nil && runErr == nil {
		runErr = err
	}
	root.Exit()
	if runErr != nil {
		return nil, runErr
	}
	return t, nil
}

// manifestPath stores the PTU run manifest inside the package.
const manifestPath = "/ptu/manifest.json"

// tracePath stores the OS provenance graph in the trace's native binary
// encoding.
const tracePath = "/ptu/trace.bin"

// BuildPackage copies every traced file — the full DB included — plus the
// OS provenance graph into an archive.
func BuildPackage(m *ldv.Machine, t *Tracer, apps []ldv.App) (*pack.Archive, error) {
	arch := pack.New()
	fs := m.Kernel.FS()
	t.mu.Lock()
	snaps := make(map[string][]byte, len(t.snaps))
	for p, d := range t.snaps {
		snaps[p] = d
	}
	t.mu.Unlock()
	for _, path := range t.Files() {
		// Prefer the first-read snapshot; files only ever written are
		// outputs and ship in their final state (they are regenerated on
		// replay anyway).
		if data, ok := snaps[path]; ok {
			arch.Add(path, data)
			continue
		}
		info, err := fs.Stat(path)
		if err != nil {
			continue // deleted after use
		}
		if info.Symlink != "" {
			arch.AddSymlink(path, info.Symlink)
			continue
		}
		data, err := fs.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("ptu package %s: %w", path, err)
		}
		arch.Add(path, data)
	}
	traceData, err := t.Trace().Marshal()
	if err != nil {
		return nil, err
	}
	arch.Add(tracePath, traceData)

	var sb strings.Builder
	sb.WriteString("{\"type\":\"ptu\",\"apps\":[")
	for i, a := range apps {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "%q", a.Binary)
	}
	sb.WriteString("]}")
	arch.Add(manifestPath, []byte(sb.String()))
	return arch, nil
}

// Replay re-executes a PTU package: extract everything (full DB data files
// included), start the server — which loads the extracted data directory —
// and run the apps.
func Replay(arch *pack.Archive, apps []ldv.App) (*ldv.Machine, error) {
	k := osim.NewKernel()
	if err := arch.ExtractTo(k.FS(), "/"); err != nil {
		return nil, fmt.Errorf("ptu replay: extract: %w", err)
	}
	db := engine.NewDB(k.Clock())
	m := ldv.NewMachineForReplay(k, db, ldv.DefaultAddr, ldv.DefaultDataDir, ldv.DefaultDatabase)
	m.RegisterApps(apps)
	ldv.SetRuntime(k, &ldv.Runtime{Mode: ldv.ModePlain, Addr: m.Addr, Database: m.Database})
	defer ldv.ClearRuntime(k)

	root := k.Start("ptu-exec")
	defer root.Exit()
	if err := m.StartServer(root); err != nil {
		return nil, fmt.Errorf("ptu replay: start server: %w", err)
	}
	var runErr error
	for _, app := range apps {
		if err := root.Spawn(app.Binary, app.Libs...); err != nil {
			runErr = fmt.Errorf("ptu replay %s: %w", app.Binary, err)
			break
		}
	}
	if err := m.StopServer(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return nil, runErr
	}
	return m, nil
}
