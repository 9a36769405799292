package ldv

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ldv/internal/engine"
	"ldv/internal/obs"
	"ldv/internal/osim"
)

// What a server start and stop cost a run, as the OS trace and the engine's
// counters show it: the server reads every data file on every start (so a
// file-granularity packager still captures them), but decodes only a file its
// database does not already equal, and on stop writes only the tables the run
// changed — a plain run's writes as table files, an audited run's
// prov_usedby stamps as stamps files beside them. A server-included replay's
// server starts from the package's table files and follows the same rule.

// dataFileTrace records which data files (table and stamps files) were
// opened, by whom, for what.
type dataFileTrace struct {
	mu     sync.Mutex
	reads  map[string]bool
	writes map[string]bool
	pids   map[int]bool
}

func newDataFileTrace() *dataFileTrace {
	return &dataFileTrace{reads: map[string]bool{}, writes: map[string]bool{}, pids: map[int]bool{}}
}

func (tr *dataFileTrace) OnEvent(ev osim.Event) {
	if ev.Kind != osim.EvOpen || !strings.HasSuffix(ev.Path, ".tbl") && !strings.HasSuffix(ev.Path, ".stamps") {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	name := ev.Path[strings.LastIndex(ev.Path, "/")+1:]
	if ev.Write {
		tr.writes[name] = true
	} else {
		tr.reads[name] = true
	}
	tr.pids[ev.PID] = true
}

// shopApp is one application process running the given statements.
func shopApp(name string, stmts ...string) App {
	return App{
		Binary: "/home/alice/bin/" + name,
		Libs:   ClientLibs(),
		Prog: func(p *osim.Process) error {
			conn, err := Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			for _, sql := range stmts {
				if _, err := conn.Query(sql); err != nil {
					return fmt.Errorf("%s: %w", sql, err)
				}
			}
			return nil
		},
	}
}

func TestServerStartStopTouchOnlyWhatChanged(t *testing.T) {
	all := []string{"audit_log", "items", "sales"}
	allFiles := []string{"audit_log.tbl", "items.tbl", "sales.tbl"}
	newShop := func(t *testing.T) *Machine {
		t.Helper()
		m, err := NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.DB.ExecScript(`
			CREATE TABLE sales (id INTEGER PRIMARY KEY, item INTEGER, price FLOAT);
			CREATE TABLE items (id INTEGER PRIMARY KEY, name TEXT);
			CREATE TABLE audit_log (id INTEGER PRIMARY KEY, note TEXT);
			INSERT INTO sales VALUES (1, 1, 5), (2, 2, 11), (3, 1, 14);
			INSERT INTO items VALUES (1, 'bolt'), (2, 'nut');
			INSERT INTO audit_log VALUES (1, 'opened');`, engine.ExecOptions{}); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// The two ways a machine's database meets its data directory before the
	// first run: installed from memory (PersistData: the scenarios, the
	// examples), or loaded from files that were there (the benchmark's
	// bootMachine).
	boots := map[string]func(*testing.T) *Machine{
		"persisted": func(t *testing.T) *Machine {
			m := newShop(t)
			if err := m.PersistData(); err != nil {
				t.Fatal(err)
			}
			return m
		},
		"loaded": func(t *testing.T) *Machine {
			src := newShop(t)
			if err := src.PersistData(); err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range all {
				data, err := src.Kernel.FS().ReadFile(src.DataDir + "/" + name + ".tbl")
				if err != nil {
					t.Fatal(err)
				}
				if err := m.Kernel.FS().WriteFile(m.DataDir+"/"+name+".tbl", data); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.DB.LoadDir(m.Kernel.FS(), m.DataDir); err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
	selects := shopApp("report", "SELECT s.id, i.name FROM sales s, items i WHERE s.item = i.id AND s.price > 10", "SELECT count(*) FROM sales")
	writes := shopApp("till", "INSERT INTO sales VALUES (4, 2, 20)", "SELECT name FROM items WHERE id = 2")
	for _, tc := range []struct {
		name      string
		run       func(*Machine, []App) error
		app       App
		wantWrite []string
	}{
		{"plain run of a select-only app", Run, selects, nil},
		{"plain run of an app that writes one table", Run, writes, []string{"sales.tbl"}},
		{"audited select: the tables whose prov_usedby it stamped", func(m *Machine, apps []App) error {
			_, err := Audit(m, apps)
			return err
		}, selects, []string{"items.stamps", "sales.stamps"}},
		{"select audited without lineage", func(m *Machine, apps []App) error {
			_, err := AuditWithOptions(m, apps, AuditOptions{})
			return err
		}, selects, nil},
	} {
		for boot, newMachine := range boots {
			t.Run(tc.name+"/"+boot, func(t *testing.T) {
				m := newMachine(t)
				tr := newDataFileTrace()
				m.Kernel.Trace(tr)
				defer m.Kernel.Detach(tr)
				decoded := obs.Default().Counter("engine.load.tables_decoded")
				before := decoded.Load()
				if err := tc.run(m, []App{tc.app}); err != nil {
					t.Fatal(err)
				}
				if got := sortedKeys(tr.reads); !reflect.DeepEqual(got, allFiles) {
					t.Errorf("the server read %v, want every data file %v", got, allFiles)
				}
				if got := sortedKeys(tr.writes); !reflect.DeepEqual(got, append([]string{}, tc.wantWrite...)) {
					t.Errorf("the server wrote %v, want %v", got, tc.wantWrite)
				}
				if !reflect.DeepEqual(tr.pids, map[int]bool{m.ServerPID(): true}) {
					t.Errorf("data files opened by pids %v, want only the server's %d", tr.pids, m.ServerPID())
				}
				if n := decoded.Load() - before; n != 0 {
					t.Errorf("the server start decoded %d table files of a database it already held", n)
				}
				// What the directory holds after the run is the database.
				fresh := engine.NewDB(nil)
				if err := fresh.LoadDir(m.Kernel.FS(), m.DataDir); err != nil {
					t.Fatal(err)
				}
				for _, name := range all {
					q := "SELECT *, prov_rowid, prov_v, prov_p, prov_usedby FROM " + name + " ORDER BY id"
					want, err := m.DB.Exec(q, engine.ExecOptions{})
					if err != nil {
						t.Fatal(err)
					}
					got, err := fresh.Exec(q, engine.ExecOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
						t.Errorf("%s on disk:\n%v\nin memory:\n%v", name, got.Rows, want.Rows)
					}
				}

				// A second start on the same machine reads every data file,
				// stamps files included, and decodes none of them: the
				// database already equals what the stop wrote.
				want := map[string]bool{}
				for _, f := range append(allFiles, tc.wantWrite...) {
					want[f] = true
				}
				again := newDataFileTrace()
				m.Kernel.Trace(again)
				defer m.Kernel.Detach(again)
				applied := obs.Default().Counter("engine.load.stamps_applied")
				before, appliedBefore := decoded.Load(), applied.Load()
				if err := Run(m, []App{selects}); err != nil {
					t.Fatal(err)
				}
				if got := sortedKeys(again.reads); !reflect.DeepEqual(got, sortedKeys(want)) {
					t.Errorf("the second start read %v, want %v", got, sortedKeys(want))
				}
				if n, a := decoded.Load()-before, applied.Load()-appliedBefore; n != 0 || a != 0 {
					t.Errorf("the second start decoded %d table files and applied %d stamps files, want none", n, a)
				}
				if len(again.writes) != 0 {
					t.Errorf("the second stop wrote %v, want nothing", sortedKeys(again.writes))
				}
			})
		}
	}

	// The package's table files are the replayed server's data directory: its
	// start reads every one — into an empty database, so it decodes them all —
	// and its stop writes only what the replayed application changed.
	for _, tc := range []struct {
		name      string
		app       App
		wantWrite []string
	}{
		{"server-included replay of a select-only app", selects, nil},
		{"server-included replay of an app that writes one table", writes, []string{"sales.tbl"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := boots["persisted"](t)
			apps := []App{tc.app}
			aud, err := Audit(m, apps)
			if err != nil {
				t.Fatal(err)
			}
			arch, err := BuildServerIncluded(m, aud, apps)
			if err != nil {
				t.Fatal(err)
			}
			setup, err := PrepareReplay(arch, appProgramsOf(apps))
			if err != nil {
				t.Fatal(err)
			}
			defer ClearRuntime(setup.Machine.Kernel)
			tr := newDataFileTrace()
			setup.Machine.Kernel.Trace(tr)
			defer setup.Machine.Kernel.Detach(tr)
			decoded := obs.Default().Counter("engine.load.tables_decoded")
			before := decoded.Load()
			if err := setup.Run(); err != nil {
				t.Fatal(err)
			}
			if got := sortedKeys(tr.reads); !reflect.DeepEqual(got, allFiles) {
				t.Errorf("the replayed server read %v, want every packaged table file %v", got, allFiles)
			}
			if n := decoded.Load() - before; n != int64(len(all)) {
				t.Errorf("the replayed server decoded %d table files, want %d", n, len(all))
			}
			if got := sortedKeys(tr.writes); !reflect.DeepEqual(got, append([]string{}, tc.wantWrite...)) {
				t.Errorf("the replayed server wrote %v, want %v", got, tc.wantWrite)
			}
			if !reflect.DeepEqual(tr.pids, map[int]bool{setup.Machine.ServerPID(): true}) {
				t.Errorf("data files opened by pids %v, want only the server's %d", tr.pids, setup.Machine.ServerPID())
			}
		})
	}
}

// A table an application drops stays dropped: the server's stop retires its
// file, so neither the next start on the same machine nor a fresh load of the
// data directory brings it back.
func TestDroppedTableStaysDropped(t *testing.T) {
	m, err := NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.DB.ExecScript(`
		CREATE TABLE sales (id INTEGER PRIMARY KEY, price FLOAT);
		CREATE TABLE scratch (id INTEGER PRIMARY KEY, note TEXT);
		INSERT INTO sales VALUES (1, 5), (2, 11);
		INSERT INTO scratch VALUES (1, 'tmp');`, engine.ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := m.PersistData(); err != nil {
		t.Fatal(err)
	}
	if err := Run(m, []App{shopApp("cleanup", "DROP TABLE scratch")}); err != nil {
		t.Fatal(err)
	}
	if err := Run(m, []App{shopApp("report", "SELECT count(*) FROM sales")}); err != nil {
		t.Fatal(err)
	}
	if got := m.DB.TableNames(); !reflect.DeepEqual(got, []string{"sales"}) {
		t.Errorf("after the next start the server holds %v, want [sales]", got)
	}
	fresh := engine.NewDB(nil)
	if err := fresh.LoadDir(m.Kernel.FS(), m.DataDir); err != nil {
		t.Fatal(err)
	}
	if got := fresh.TableNames(); !reflect.DeepEqual(got, []string{"sales"}) {
		t.Errorf("the data directory loads %v, want [sales]", got)
	}
	names, err := m.Kernel.FS().ReadDir(m.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "scratch.") {
			t.Errorf("the data directory still holds %s", n)
		}
	}
}
