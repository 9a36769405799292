package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"ldv/internal/engine"
	"ldv/internal/ldv"
	"ldv/internal/tpch"
)

// ms renders a duration in milliseconds with sub-ms resolution.
func ms(d time.Duration) string { return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000) }

func mb(bytes int64) string { return fmt.Sprintf("%.2f", float64(bytes)/(1<<20)) }

// Table2 prints the paper's Table II: the 18 query variants, their PARAM
// values for the configured scale, the target selectivity, and the measured
// selectivity/row counts against the generated data.
func Table2(cfg Config, w io.Writer) error {
	db := engine.NewDB(nil)
	stats, err := tpch.Load(db, cfg.TPCH())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table II: query variants at SF %g (paper: SF 1)\n", cfg.SF)
	fmt.Fprintf(w, "%-6s %-10s %-12s %-12s %-10s\n", "Query", "PARAM", "Target Sel.", "Meas. Sel.", "Rows")
	for _, q := range tpch.Queries(cfg.TPCH()) {
		res, err := db.Exec(q.SQL, engine.ExecOptions{})
		if err != nil {
			return fmt.Errorf("%s: %w", q.ID, err)
		}
		denom := float64(stats.Lineitem)
		measured := float64(len(res.Rows)) / denom
		if q.Family == 3 {
			// Q3 returns one count row; its effective selectivity is the
			// counted fraction.
			measured = float64(res.Rows[0][0].Int()) / denom
		}
		fmt.Fprintf(w, "%-6s %-10s %-12.4f %-12.4f %-10d\n",
			q.ID, q.Param, q.Selectivity, measured, len(res.Rows))
	}
	return nil
}

// Table3 prints the paper's Table III package-contents matrix by building
// all three package kinds for the Q1-1 workload and inspecting their actual
// contents.
func Table3(cfg Config, w io.Writer) error {
	q, err := tpch.QueryByID(cfg.TPCH(), "Q1-1")
	if err != nil {
		return err
	}
	type row struct {
		name                                     string
		binaries, server, data, dataState, dbpro string
	}
	var rows []row
	for _, sys := range []System{SysPTU, SysSI, SysSE} {
		out, err := RunAudit(cfg, q, sys)
		if err != nil {
			return fmt.Errorf("%s: %w", sys, err)
		}
		pkg := out.Package
		hasServer := pkg.Has(ldv.ServerBinaryPath)
		dataFiles := len(pkg.PathsUnder(ldv.DefaultDataDir))
		provFiles := len(pkg.PathsUnder(ldv.ProvDataDir)) + boolInt(pkg.Has(ldv.DBLogPath))
		r := row{
			name:     string(sys),
			binaries: yesNo(pkg.Has(AppBinaryPath)),
			server:   yesNo(hasServer),
			data:     yesNo(dataFiles > 0),
			dbpro:    yesNo(provFiles > 0),
		}
		switch {
		case dataFiles > 0:
			r.dataState = "(full)"
		case hasServer:
			r.dataState = "(empty)"
		default:
			r.dataState = ""
		}
		rows = append(rows, r)
	}
	fmt.Fprintln(w, "Table III: package contents")
	fmt.Fprintf(w, "%-26s %-10s %-10s %-14s %-14s\n",
		"Package type", "Software", "DB server", "Data files", "DB provenance")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %-10s %-10s %-14s %-14s\n",
			r.name, r.binaries, r.server, r.data+" "+r.dataState, r.dbpro)
	}
	return nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// medianAudit runs an audit three times and returns the run with the
// median total select time, damping GC noise in per-step timings.
func medianAudit(cfg Config, q tpch.Query, sys System) (*AuditOutcome, error) {
	var outs []*AuditOutcome
	for i := 0; i < 3; i++ {
		out, err := RunAudit(cfg, q, sys)
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].Steps.SelectMean() < outs[j].Steps.SelectMean() })
	return outs[1], nil
}

// Fig7a prints audit-time per workload step for each system (paper Figure
// 7a, query Q1-1), with the unmonitored run as reference.
func Fig7a(cfg Config, w io.Writer) error {
	q, err := tpch.QueryByID(cfg.TPCH(), "Q1-1")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 7a: audit time per step (ms), query Q1-1, SF %g\n", cfg.SF)
	fmt.Fprintf(w, "%-26s %-12s %-14s %-14s %-12s\n", "System", "Inserts", "First Select", "Other Selects", "Updates")
	systems := append([]System{SysPlain}, AuditSystems()...)
	for _, sys := range systems {
		out, err := medianAudit(cfg, q, sys)
		if err != nil {
			return fmt.Errorf("%s: %w", sys, err)
		}
		st := out.Steps
		fmt.Fprintf(w, "%-26s %-12s %-14s %-14s %-12s\n",
			sys, ms(st.Inserts), ms(st.FirstSelect()), ms(st.OtherSelects()), ms(st.Updates))
	}
	return nil
}

// Fig7b prints replay-time per step (paper Figure 7b): initialization plus
// the workload steps, for each replayable system and the plain reference.
func Fig7b(cfg Config, w io.Writer) error {
	q, err := tpch.QueryByID(cfg.TPCH(), "Q1-1")
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 7b: replay time per step (ms), query Q1-1, SF %g\n", cfg.SF)
	fmt.Fprintf(w, "%-26s %-14s %-12s %-14s %-14s %-12s\n",
		"System", "Initialization", "Inserts", "First Select", "Other Selects", "Updates")
	// Plain reference (no package; a fresh run).
	plain, err := RunAudit(cfg, q, SysPlain)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-26s %-14s %-12s %-14s %-14s %-12s\n", SysPlain, "-",
		ms(plain.Steps.Inserts), ms(plain.Steps.FirstSelect()), ms(plain.Steps.OtherSelects()), ms(plain.Steps.Updates))
	for _, sys := range ReplaySystems() {
		out, err := RunAudit(cfg, q, sys)
		if err != nil {
			return fmt.Errorf("%s audit: %w", sys, err)
		}
		st, err := RunReplay(cfg, q, sys, out)
		if err != nil {
			return fmt.Errorf("%s replay: %w", sys, err)
		}
		fmt.Fprintf(w, "%-26s %-14s %-12s %-14s %-14s %-12s\n",
			sys, ms(st.Init), ms(st.Inserts), ms(st.FirstSelect()), ms(st.OtherSelects()), ms(st.Updates))
	}
	return nil
}

// Fig8a prints per-query audit execution time for all 18 variants (paper
// Figure 8a). Only the select step runs (the insert/update steps belong to
// Figure 7).
func Fig8a(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "Figure 8a: audit time per query (ms, mean of %d runs), SF %g\n", cfg.Selects, cfg.SF)
	return fig8(cfg, w, append([]System{SysPlain}, AuditSystems()...), func(sys System, q tpch.Query) (time.Duration, error) {
		qcfg := cfg
		qcfg.Inserts, qcfg.Updates = 0, 0
		out, err := RunAudit(qcfg, q, sys)
		if err != nil {
			return 0, err
		}
		return out.Steps.SelectMean(), nil
	})
}

// Fig8b prints per-query replay execution time for all 18 variants and all
// four replay systems (paper Figure 8b).
func Fig8b(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "Figure 8b: replay time per query (ms, mean of %d runs), SF %g\n", cfg.Selects, cfg.SF)
	return fig8(cfg, w, ReplaySystems(), func(sys System, q tpch.Query) (time.Duration, error) {
		qcfg := cfg
		qcfg.Inserts, qcfg.Updates = 0, 0
		out, err := RunAudit(qcfg, q, sys)
		if err != nil {
			return 0, err
		}
		st, err := RunReplay(qcfg, q, sys, out)
		if err != nil {
			return 0, err
		}
		return st.SelectMean(), nil
	})
}

func fig8(cfg Config, w io.Writer, systems []System, measure func(System, tpch.Query) (time.Duration, error)) error {
	queries := tpch.Queries(cfg.TPCH())
	header := fmt.Sprintf("%-6s", "Query")
	for _, sys := range systems {
		header += fmt.Sprintf(" %-26s", sys)
	}
	fmt.Fprintln(w, header)
	for _, q := range queries {
		line := fmt.Sprintf("%-6s", q.ID)
		for _, sys := range systems {
			d, err := measure(sys, q)
			if err != nil {
				return fmt.Errorf("%s %s: %w", q.ID, sys, err)
			}
			line += fmt.Sprintf(" %-26s", ms(d))
		}
		fmt.Fprintln(w, line)
	}
	return nil
}

// Fig9 prints package sizes for all 18 queries and the three packaging
// systems (paper Figure 9).
func Fig9(cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "Figure 9: package size (MB) per query, SF %g\n", cfg.SF)
	fmt.Fprintf(w, "%-6s %-18s %-18s %-18s %-16s\n", "Query", "PTU package", "Server-included", "Server-excluded", "Relevant tuples")
	for _, q := range tpch.Queries(cfg.TPCH()) {
		var sizes []string
		relevant := 0
		for _, sys := range AuditSystems() {
			out, err := RunAudit(cfg, q, sys)
			if err != nil {
				return fmt.Errorf("%s %s: %w", q.ID, sys, err)
			}
			sizes = append(sizes, mb(out.Package.TotalSize()))
			if sys == SysSI {
				relevant = out.RelevantTuples
			}
		}
		fmt.Fprintf(w, "%-6s %-18s %-18s %-18s %-16d\n", q.ID, sizes[0], sizes[1], sizes[2], relevant)
	}
	return nil
}

// VMIComparison prints the §IX-F comparison: image sizes against LDV
// package sizes and the replay-slowdown summary.
func VMIComparison(cfg Config, w io.Writer) error {
	q, err := tpch.QueryByID(cfg.TPCH(), "Q1-1")
	if err != nil {
		return err
	}
	vm, err := RunAudit(cfg, q, SysVM)
	if err != nil {
		return err
	}
	si, err := RunAudit(cfg, q, SysSI)
	if err != nil {
		return err
	}
	se, err := RunAudit(cfg, q, SysSE)
	if err != nil {
		return err
	}
	imgSize := vm.Image.TotalSize()
	avgLDV := (si.Package.TotalSize() + se.Package.TotalSize()) / 2
	fmt.Fprintf(w, "Section IX-F: VM image comparison (SF %g)\n", cfg.SF)
	fmt.Fprintf(w, "VM image size:            %s MB (%d files)\n", mb(imgSize), vm.Image.FileCount())
	fmt.Fprintf(w, "Server-included package:  %s MB\n", mb(si.Package.TotalSize()))
	fmt.Fprintf(w, "Server-excluded package:  %s MB\n", mb(se.Package.TotalSize()))
	fmt.Fprintf(w, "Average LDV package:      %s MB\n", mb(avgLDV))
	fmt.Fprintf(w, "VMI / average LDV:        %.1fx (paper: 80x)\n", float64(imgSize)/float64(avgLDV))

	vmReplay, err := RunReplay(cfg, q, SysVM, vm)
	if err != nil {
		return err
	}
	seReplay, err := RunReplay(cfg, q, SysSE, se)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "VM replay select mean:    %s ms\n", ms(vmReplay.SelectMean()))
	fmt.Fprintf(w, "SE replay select mean:    %s ms\n", ms(seReplay.SelectMean()))
	return nil
}

// Experiments maps experiment ids (as accepted by ldv-bench -exp) to their
// runners.
func Experiments() map[string]func(Config, io.Writer) error {
	return map[string]func(Config, io.Writer) error{
		"table2": Table2,
		"table3": Table3,
		"fig7a":  Fig7a,
		"fig7b":  Fig7b,
		"fig8a":  Fig8a,
		"fig8b":  Fig8b,
		"fig9":   Fig9,
		"vmi":    VMIComparison,
		"ablation": func(cfg Config, w io.Writer) error {
			if err := AblationTemporalPruning(cfg, w); err != nil {
				return err
			}
			if err := AblationDedup(cfg, w); err != nil {
				return err
			}
			return AblationTableGranularity(cfg, w)
		},
	}
}

// ExperimentNames lists the ids in presentation order.
func ExperimentNames() []string {
	return []string{"table2", "table3", "fig7a", "fig7b", "fig8a", "fig8b", "fig9", "vmi", "ablation"}
}

// RunAll executes every experiment in order.
func RunAll(cfg Config, w io.Writer) error {
	exps := Experiments()
	for _, name := range ExperimentNames() {
		fmt.Fprintf(w, "==== %s ====\n", name)
		if err := exps[name](cfg, w); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(w, strings.Repeat("-", 72))
	}
	return nil
}
