// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§IX): per-step audit and replay times
// (Figure 7), per-query audit and replay times (Figure 8), package sizes
// (Figure 9), the query/selectivity inventory (Table II), the package
// contents matrix (Table III), and the VM-image comparison (§IX-F), plus
// ablation studies for the design choices called out in DESIGN.md. It
// runs nothing else: what the reproduction measures about its own
// substrate is a metric of the repository benchmark (benchmark/).
package bench

import (
	"fmt"
	"sync"
	"time"

	"ldv/internal/baseline/ptu"
	"ldv/internal/baseline/vmi"
	"ldv/internal/client"
	"ldv/internal/engine"
	"ldv/internal/ldv"
	"ldv/internal/obs"
	"ldv/internal/osim"
	"ldv/internal/pack"
	"ldv/internal/tpch"
)

// Config scales the experiments. The paper runs TPC-H SF 1 with 1000
// inserts / 10 selects / 100 updates; the defaults here are laptop-scale
// with the same proportions available via flags.
type Config struct {
	SF      float64
	Seed    uint64
	Inserts int
	Selects int
	Updates int
}

// DefaultConfig is the scale `ldv-bench` runs at unless flags override it.
func DefaultConfig() Config {
	return Config{SF: 0.005, Seed: 42, Inserts: 200, Selects: 10, Updates: 50}
}

// TPCH returns the generator configuration.
func (c Config) TPCH() tpch.Config { return tpch.Config{SF: c.SF, Seed: c.Seed} }

func (c Config) workload(q tpch.Query) tpch.Workload {
	w := tpch.NewWorkload(c.TPCH(), q)
	w.NumInserts, w.NumSelects, w.NumUpdates = c.Inserts, c.Selects, c.Updates
	return w
}

// System identifies one sharing approach under comparison.
type System string

// The compared systems, labelled as in the paper's figures.
const (
	SysPlain System = "PostgreSQL"
	SysPTU   System = "PostgreSQL + PTU"
	SysSI    System = "Server-included package"
	SysSE    System = "Server-excluded package"
	SysVM    System = "VM"
)

// AuditSystems are the systems of Figures 7a/8a.
func AuditSystems() []System { return []System{SysPTU, SysSI, SysSE} }

// ReplaySystems are the systems of Figures 7b/8b.
func ReplaySystems() []System { return []System{SysPTU, SysSI, SysSE, SysVM} }

// StepTimes holds per-step wall-clock durations of one workload execution.
type StepTimes struct {
	Init       time.Duration // replay initialization (zero during audit)
	Inserts    time.Duration
	SelectEach []time.Duration
	Updates    time.Duration
}

// FirstSelect is the cold-cache first query instance.
func (s *StepTimes) FirstSelect() time.Duration {
	if len(s.SelectEach) == 0 {
		return 0
	}
	return s.SelectEach[0]
}

// OtherSelects is the mean of the warm query instances.
func (s *StepTimes) OtherSelects() time.Duration {
	if len(s.SelectEach) < 2 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.SelectEach[1:] {
		sum += d
	}
	return sum / time.Duration(len(s.SelectEach)-1)
}

// SelectMean is the mean over all query instances (Figure 8's metric).
func (s *StepTimes) SelectMean() time.Duration {
	if len(s.SelectEach) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.SelectEach {
		sum += d
	}
	return sum / time.Duration(len(s.SelectEach))
}

// ---- TPC-H data templates ----

// Loading TPC-H is by far the most expensive setup step, so generated data
// is encoded once per (SF, seed) and stamped into each fresh machine's data
// directory, which doubles as the pre-existing on-disk database §IX-A's
// runs start from.
var (
	templateMu sync.Mutex
	templates  = map[Config]map[string][]byte{}
)

func dataTemplate(cfg Config) (map[string][]byte, error) {
	templateMu.Lock()
	defer templateMu.Unlock()
	key := Config{SF: cfg.SF, Seed: cfg.Seed}
	if t, ok := templates[key]; ok {
		return t, nil
	}
	db := engine.NewDB(nil)
	if _, err := tpch.Load(db, cfg.TPCH()); err != nil {
		return nil, err
	}
	fs := osim.NewFS()
	if err := db.Checkpoint(fs, "/t"); err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	names, err := fs.ReadDir("/t")
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		data, err := fs.ReadFile("/t/" + n)
		if err != nil {
			return nil, err
		}
		files[n] = data
	}
	templates[key] = files
	return files, nil
}

// NewMachine boots a machine whose database is the TPC-H dataset, present
// both in memory and as on-disk data files.
func NewMachine(cfg Config) (*ldv.Machine, error) {
	files, err := dataTemplate(cfg)
	if err != nil {
		return nil, err
	}
	m, err := ldv.NewMachine()
	if err != nil {
		return nil, err
	}
	fs := m.Kernel.FS()
	for name, data := range files {
		if err := fs.WriteFile(m.DataDir+"/"+name, data); err != nil {
			return nil, err
		}
	}
	if err := m.DB.LoadDir(fs, m.DataDir); err != nil {
		return nil, err
	}
	return m, nil
}

// ---- the workload application ----

// AppBinaryPath is where the benchmark application is installed.
const AppBinaryPath = "/usr/bin/tpch-app"

// workloadApp builds the §IX-A application as an installable binary whose
// step durations land in st. When vm is set, DB traffic passes through the
// VM baseline's emulated device layer.
func workloadApp(w tpch.Workload, st *StepTimes, vm bool) ldv.App {
	return ldv.App{
		Binary: AppBinaryPath,
		Libs:   ldv.ClientLibs(),
		Size:   180 << 10,
		Prog: func(p *osim.Process) error {
			var conn *client.Conn
			var err error
			if vm {
				conn, err = vmi.Dial(p, ldv.DefaultAddr, ldv.DefaultDatabase)
			} else {
				conn, err = ldv.Dial(p)
			}
			if err != nil {
				return err
			}
			defer conn.Close()

			if w.NumInserts > 0 {
				t0 := time.Now()
				if err := w.InsertStep(conn); err != nil {
					return err
				}
				st.Inserts = time.Since(t0)
			}
			for i := 0; i < w.NumSelects; i++ {
				t0 := time.Now()
				if err := w.SelectOnce(conn); err != nil {
					return err
				}
				st.SelectEach = append(st.SelectEach, time.Since(t0))
			}
			if w.NumUpdates > 0 {
				t0 := time.Now()
				if err := w.UpdateStep(conn); err != nil {
					return err
				}
				st.Updates = time.Since(t0)
			}
			return nil
		},
	}
}

// AuditOutcome bundles everything a monitored run produced.
type AuditOutcome struct {
	System  System
	Steps   StepTimes
	Package *pack.Archive // nil for SysPlain and SysVM
	Image   *vmi.Image    // SysVM only
	Apps    []ldv.App
	// Stats from the LDV auditor (SI/SE only).
	RelevantTuples   int
	ProvenanceTuples int
	TraceNodes       int
}

// phaseSpan wraps one harness phase in an obs span so per-phase timings
// land in the observability snapshot as span.<name> histograms.
func phaseSpan(name string, sys System, q tpch.Query, f func() error) error {
	sp := obs.StartSpan(name).SetAttr("system", string(sys)).SetAttr("query", q.ID)
	defer sp.End()
	return f()
}

// RunAudit executes the workload for query q under one system's monitoring
// and builds its package/image. The monitored run and the packaging step are
// recorded as bench.audit / bench.package spans.
func RunAudit(cfg Config, q tpch.Query, sys System) (*AuditOutcome, error) {
	m, err := NewMachine(cfg)
	if err != nil {
		return nil, err
	}
	w := cfg.workload(q)
	out := &AuditOutcome{System: sys}
	app := workloadApp(w, &out.Steps, sys == SysVM)
	out.Apps = []ldv.App{app}

	switch sys {
	case SysPlain:
		if err := phaseSpan("bench.audit", sys, q, func() error {
			return ldv.Run(m, out.Apps)
		}); err != nil {
			return nil, err
		}
	case SysPTU:
		var tr *ptu.Tracer
		if err := phaseSpan("bench.audit", sys, q, func() (err error) {
			tr, err = ptu.Audit(m, out.Apps)
			return err
		}); err != nil {
			return nil, err
		}
		if err := phaseSpan("bench.package", sys, q, func() (err error) {
			out.Package, err = ptu.BuildPackage(m, tr, out.Apps)
			return err
		}); err != nil {
			return nil, err
		}
	case SysSI:
		var aud *ldv.Auditor
		if err := phaseSpan("bench.audit", sys, q, func() (err error) {
			aud, err = ldv.Audit(m, out.Apps)
			return err
		}); err != nil {
			return nil, err
		}
		if err := phaseSpan("bench.package", sys, q, func() (err error) {
			out.Package, err = ldv.BuildServerIncluded(m, aud, out.Apps)
			return err
		}); err != nil {
			return nil, err
		}
		out.RelevantTuples = aud.RelevantTupleCount()
		out.ProvenanceTuples = aud.ProvenanceTupleCount()
		out.TraceNodes = aud.Trace().NodeCount()
	case SysSE:
		var aud *ldv.Auditor
		if err := phaseSpan("bench.audit", sys, q, func() (err error) {
			aud, err = ldv.AuditWithOptions(m, out.Apps, ldv.AuditOptions{CollectLineage: false})
			return err
		}); err != nil {
			return nil, err
		}
		if err := phaseSpan("bench.package", sys, q, func() (err error) {
			out.Package, err = ldv.BuildServerExcluded(m, aud, out.Apps)
			return err
		}); err != nil {
			return nil, err
		}
	case SysVM:
		if err := phaseSpan("bench.audit", sys, q, func() error {
			out.Image = vmi.BuildImage(m)
			return vmi.Run(m, out.Image, out.Apps)
		}); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: unknown system %q", sys)
	}
	return out, nil
}

// RunReplay re-executes a previously packaged run under the given system,
// timing initialization and the workload steps. The whole re-execution is
// recorded as a bench.replay span.
func RunReplay(cfg Config, q tpch.Query, sys System, audit *AuditOutcome) (*StepTimes, error) {
	sp := obs.StartSpan("bench.replay").SetAttr("system", string(sys)).SetAttr("query", q.ID)
	defer sp.End()
	w := cfg.workload(q)
	st := &StepTimes{}
	app := workloadApp(w, st, sys == SysVM)
	progs := map[string]osim.Program{app.Binary: app.Prog}

	switch sys {
	case SysPTU:
		t0 := time.Now()
		k := osim.NewKernel()
		if err := audit.Package.ExtractTo(k.FS(), "/"); err != nil {
			return nil, err
		}
		db := engine.NewDB(k.Clock())
		m := ldv.NewMachineForReplay(k, db, ldv.DefaultAddr, ldv.DefaultDataDir, ldv.DefaultDatabase)
		m.RegisterApps([]ldv.App{app})
		ldv.SetRuntime(k, &ldv.Runtime{Mode: ldv.ModePlain, Addr: m.Addr, Database: m.Database})
		defer ldv.ClearRuntime(k)
		root := k.Start("ptu-exec")
		defer root.Exit()
		if err := m.StartServer(root); err != nil {
			return nil, err
		}
		st.Init = time.Since(t0)
		if err := root.Spawn(app.Binary, app.Libs...); err != nil {
			return nil, err
		}
		if err := m.StopServer(); err != nil {
			return nil, err
		}
	case SysSI:
		t0 := time.Now()
		setup, err := ldv.PrepareReplay(audit.Package, progs)
		if err != nil {
			return nil, err
		}
		defer ldv.ClearRuntime(setup.Machine.Kernel)
		root := setup.Machine.Kernel.Start("ldv-exec")
		defer root.Exit()
		if err := setup.Machine.StartServer(root); err != nil {
			return nil, err
		}
		st.Init = time.Since(t0)
		if err := root.Spawn(app.Binary, app.Libs...); err != nil {
			return nil, err
		}
		if err := setup.Machine.StopServer(); err != nil {
			return nil, err
		}
	case SysSE:
		t0 := time.Now()
		setup, err := ldv.PrepareReplay(audit.Package, progs)
		if err != nil {
			return nil, err
		}
		defer ldv.ClearRuntime(setup.Machine.Kernel)
		st.Init = time.Since(t0)
		root := setup.Machine.Kernel.Start("ldv-exec")
		defer root.Exit()
		if err := root.Spawn(app.Binary, app.Libs...); err != nil {
			return nil, err
		}
	case SysVM:
		t0 := time.Now()
		vmi.Boot(audit.Image)
		m, err := NewMachine(cfg)
		if err != nil {
			return nil, err
		}
		if err := m.InstallApps([]ldv.App{app}); err != nil {
			return nil, err
		}
		ldv.SetRuntime(m.Kernel, &ldv.Runtime{Mode: ldv.ModePlain, Addr: m.Addr, Database: m.Database})
		defer ldv.ClearRuntime(m.Kernel)
		root := m.Kernel.Start("vm")
		defer root.Exit()
		if err := m.StartServer(root); err != nil {
			return nil, err
		}
		st.Init = time.Since(t0)
		if err := root.Spawn(app.Binary, app.Libs...); err != nil {
			return nil, err
		}
		if err := m.StopServer(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: cannot replay system %q", sys)
	}
	return st, nil
}
