package ldv

import (
	"fmt"
	"reflect"
	"sort"
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
// changed — a plain run's writes, an audited run's prov_usedby stamps.

// dataFileTrace records which data files were opened, by whom, for what.
type dataFileTrace struct {
	mu     sync.Mutex
	reads  map[string]bool
	writes map[string]bool
	pids   map[int]bool
}

func (tr *dataFileTrace) OnEvent(ev osim.Event) {
	if ev.Kind != osim.EvOpen || !strings.HasSuffix(ev.Path, ".tbl") {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	name := strings.TrimSuffix(ev.Path[strings.LastIndex(ev.Path, "/")+1:], ".tbl")
	if ev.Write {
		tr.writes[name] = true
	} else {
		tr.reads[name] = true
	}
	tr.pids[ev.PID] = true
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
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
		{"plain run of an app that writes one table", Run, writes, []string{"sales"}},
		{"audited select: the tables whose prov_usedby it stamped", func(m *Machine, apps []App) error {
			_, err := Audit(m, apps)
			return err
		}, selects, []string{"items", "sales"}},
		{"select audited without lineage", func(m *Machine, apps []App) error {
			_, err := AuditWithOptions(m, apps, AuditOptions{})
			return err
		}, selects, nil},
	} {
		for boot, newMachine := range boots {
			t.Run(tc.name+"/"+boot, func(t *testing.T) {
				m := newMachine(t)
				tr := &dataFileTrace{reads: map[string]bool{}, writes: map[string]bool{}, pids: map[int]bool{}}
				m.Kernel.Trace(tr)
				defer m.Kernel.Detach(tr)
				decoded := obs.Default().Counter("engine.load.tables_decoded")
				before := decoded.Load()
				if err := tc.run(m, []App{tc.app}); err != nil {
					t.Fatal(err)
				}
				if got := sortedKeys(tr.reads); !reflect.DeepEqual(got, all) {
					t.Errorf("the server read %v, want every data file %v", got, all)
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
			})
		}
	}
}
