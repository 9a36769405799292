// TPC-H: the paper's §IX evaluation application at demo scale. Runs the
// insert/select/update workload for one Table II query under all three
// packaging systems, compares package sizes (a one-row slice of Figure 9),
// and verifies each package re-executes.
//
//	go run ./examples/tpch
package main

import (
	"fmt"
	"log"

	"ldv"
	"ldv/internal/baseline/ptu"
	ildv "ldv/internal/ldv"
	"ldv/internal/tpch"
)

const queryID = "Q1-2"

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func workloadApp(cfg tpch.Config) (ldv.App, error) {
	q, err := tpch.QueryByID(cfg, queryID)
	if err != nil {
		return ldv.App{}, err
	}
	return ldv.App{
		Binary: "/usr/bin/tpch-app",
		Libs:   ldv.ClientLibs(),
		Prog: func(p *ldv.Process) error {
			w := tpch.NewWorkload(cfg, q)
			w.NumInserts, w.NumSelects, w.NumUpdates = 100, 5, 25
			conn, err := ldv.Dial(p)
			if err != nil {
				return err
			}
			defer conn.Close()
			if err := w.InsertStep(conn); err != nil {
				return err
			}
			// The Table II query is prepared once, its PARAM the one bind
			// parameter: audited and replayed like the text statements.
			sel, err := conn.Prepare(q.Prepared)
			if err != nil {
				return err
			}
			var rows int
			for i := 0; i < w.NumSelects; i++ {
				res, err := sel.Exec(q.Arg)
				if err != nil {
					return err
				}
				rows = len(res.Rows)
			}
			if err := w.UpdateStep(conn); err != nil {
				return err
			}
			return p.WriteFile("/results/workload.out",
				[]byte(fmt.Sprintf("query %s returned %d rows\n", q.ID, rows)))
		},
	}, nil
}

func newMachine(cfg tpch.Config) (*ldv.Machine, error) {
	m, err := ldv.NewMachine()
	if err != nil {
		return nil, err
	}
	if _, err := tpch.Load(m.DB, cfg); err != nil {
		return nil, err
	}
	// The database exists on disk before any monitored run (§IX-A).
	if err := m.PersistData(); err != nil {
		return nil, err
	}
	return m, nil
}

func run() error {
	cfg := tpch.Config{SF: 0.002, Seed: 42}
	q, err := tpch.QueryByID(cfg, queryID)
	if err != nil {
		return err
	}
	fmt.Printf("TPC-H SF %g, workload query %s (PARAM=%s, selectivity %.1f%%)\n\n",
		cfg.SF, q.ID, q.Param, 100*q.Selectivity)

	app, err := workloadApp(cfg)
	if err != nil {
		return err
	}
	apps := []ldv.App{app}
	programs := map[string]ldv.Program{app.Binary: app.Prog}

	type row struct {
		name   string
		sizeMB float64
		note   string
	}
	var rows []row

	// PTU baseline: full DB in the package.
	{
		m, err := newMachine(cfg)
		if err != nil {
			return err
		}
		tr, err := ptu.Audit(m, apps)
		if err != nil {
			return err
		}
		pkg, err := ptu.BuildPackage(m, tr, apps)
		if err != nil {
			return err
		}
		if _, err := ptu.Replay(pkg, apps); err != nil {
			return fmt.Errorf("PTU replay: %w", err)
		}
		rows = append(rows, row{"PTU package", mb(pkg.TotalSize()), "full DB data files"})
	}

	// LDV server-included: relevant tuples only.
	{
		m, err := newMachine(cfg)
		if err != nil {
			return err
		}
		aud, err := ldv.Audit(m, apps)
		if err != nil {
			return err
		}
		pkg, err := ldv.BuildServerIncluded(m, aud, apps)
		if err != nil {
			return err
		}
		if _, err := ldv.Replay(pkg, programs); err != nil {
			return fmt.Errorf("server-included replay: %w", err)
		}
		rows = append(rows, row{"LDV server-included", mb(pkg.TotalSize()),
			fmt.Sprintf("%d relevant tuples, DBMS included", aud.RelevantTupleCount())})
	}

	// LDV server-excluded: recorded results only.
	{
		m, err := newMachine(cfg)
		if err != nil {
			return err
		}
		aud, err := ldv.AuditWithOptions(m, apps, ildv.AuditOptions{CollectLineage: false})
		if err != nil {
			return err
		}
		pkg, err := ldv.BuildServerExcluded(m, aud, apps)
		if err != nil {
			return err
		}
		if _, err := ldv.Replay(pkg, programs); err != nil {
			return fmt.Errorf("server-excluded replay: %w", err)
		}
		rows = append(rows, row{"LDV server-excluded", mb(pkg.TotalSize()), "recorded responses, no DBMS"})
	}

	fmt.Printf("%-22s %10s   %s\n", "Package", "size (MB)", "contents")
	for _, r := range rows {
		fmt.Printf("%-22s %10.2f   %s\n", r.name, r.sizeMB, r.note)
	}
	fmt.Println("\nall three packages re-executed successfully")
	return nil
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
