package bench

import (
	"fmt"
	"io"

	"ldv/internal/deps"
	"ldv/internal/ldv"
	"ldv/internal/osim"
	"ldv/internal/prov"
	"ldv/internal/tpch"
)

// AblationTemporalPruning quantifies design choice 1 of DESIGN.md: how many
// spurious dependencies Definition 11's temporal conditions prune compared
// to naive path-plus-direct-dependency reachability, on a real audited
// trace. The workload is a multi-stage pipeline whose stages run one after
// another and exchange data through files and the DB — the pattern where
// the blackbox everything-depends-on-everything rule over-approximates and
// only the temporal annotations (paper Example 7 / Figure 6a) can prune.
func AblationTemporalPruning(cfg Config, w io.Writer) error {
	m, err := NewMachine(cfg)
	if err != nil {
		return err
	}
	fs := m.Kernel.FS()
	// Stage inputs.
	for stage := 0; stage < 4; stage++ {
		if err := fs.WriteFile(fmt.Sprintf("/in/stage%d.csv", stage), []byte(fmt.Sprintf("%d", 10+stage))); err != nil {
			return err
		}
	}
	// Each stage: read prior stage's output (if any), read its own input,
	// write its output, run one DB query, and only THEN read the next
	// stage's input "for scheduling" — the Figure-6a write-before-read
	// pattern that creates prunable blackbox dependencies.
	mkStage := func(stage int) ldv.App {
		return ldv.App{
			Binary: fmt.Sprintf("/bin/stage%d", stage),
			Libs:   ldv.ClientLibs(),
			Prog: func(p *osim.Process) error {
				if stage > 0 {
					if _, err := p.ReadFile(fmt.Sprintf("/out/stage%d.out", stage-1)); err != nil {
						return err
					}
				}
				data, err := p.ReadFile(fmt.Sprintf("/in/stage%d.csv", stage))
				if err != nil {
					return err
				}
				if err := p.WriteFile(fmt.Sprintf("/out/stage%d.out", stage), append([]byte("stage: "), data...)); err != nil {
					return err
				}
				conn, err := ldv.Dial(p)
				if err != nil {
					return err
				}
				defer conn.Close()
				if _, err := conn.Query(fmt.Sprintf("SELECT count(*) FROM orders WHERE o_orderkey <= %d", 10+stage)); err != nil {
					return err
				}
				if stage < 3 {
					if _, err := p.ReadFile(fmt.Sprintf("/in/stage%d.csv", stage+1)); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}
	apps := []ldv.App{mkStage(0), mkStage(1), mkStage(2), mkStage(3)}
	aud, err := ldv.Audit(m, apps)
	if err != nil {
		return err
	}
	tr := aud.Trace()

	inf := deps.NewDefaultInferencer(tr)
	temporal := len(inf.All())
	inf.Naive = true
	naive := len(inf.All())

	entities := 0
	for _, n := range tr.Nodes() {
		if n.Type == prov.TypeFile || n.Type == prov.TypeTuple {
			entities++
		}
	}
	fmt.Fprintln(w, "Ablation 1: temporal pruning (Definition 11 conditions 2-3)")
	fmt.Fprintf(w, "trace: %d nodes, %d edges, %d entities\n", tr.NodeCount(), tr.EdgeCount(), entities)
	fmt.Fprintf(w, "inferred dependencies, naive reachability: %d\n", naive)
	fmt.Fprintf(w, "inferred dependencies, temporal inference: %d\n", temporal)
	if naive > 0 {
		fmt.Fprintf(w, "spurious dependencies pruned:              %d (%.1f%%)\n",
			naive-temporal, 100*float64(naive-temporal)/float64(naive))
	}
	return nil
}

// AblationDedup quantifies design choice 3: the duplicate-suppression hash
// table of §VII-D. Repeated selects re-fetch the same provenance tuples;
// without dedup every copy would land in the package. One audit counts both:
// the tuples it stored, and the re-reads the table suppressed.
func AblationDedup(cfg Config, w io.Writer) error {
	q, err := tpch.QueryByID(cfg.TPCH(), "Q1-1")
	if err != nil {
		return err
	}
	m, err := NewMachine(cfg)
	if err != nil {
		return err
	}
	var st StepTimes
	app := workloadApp(cfg.workload(q), &st, false)
	aud, err := ldv.Audit(m, []ldv.App{app})
	if err != nil {
		return err
	}
	pkg, err := ldv.BuildServerIncluded(m, aud, []ldv.App{app})
	if err != nil {
		return err
	}
	withDedup := aud.RelevantTupleCount()
	without := withDedup + aud.DuplicateTupleCount()
	fmt.Fprintln(w, "Ablation 2: duplicate-suppression hash table (§VII-D)")
	fmt.Fprintf(w, "relevant tuples with dedup:    %d (provenance table files %s MB)\n", withDedup, mb(pkg.SizeUnder(ldv.ProvDataDir)))
	fmt.Fprintf(w, "relevant tuples without dedup: %d\n", without)
	if withDedup > 0 {
		fmt.Fprintf(w, "duplication factor:            %.1fx\n", float64(without)/float64(withDedup))
	}
	return nil
}

// AblationTableGranularity quantifies design choice 2: tuple-granularity
// slicing versus copying every touched table whole.
func AblationTableGranularity(cfg Config, w io.Writer) error {
	q, err := tpch.QueryByID(cfg.TPCH(), "Q1-1")
	if err != nil {
		return err
	}
	m, err := NewMachine(cfg)
	if err != nil {
		return err
	}
	var st StepTimes
	app := workloadApp(cfg.workload(q), &st, false)
	aud, err := ldv.Audit(m, []ldv.App{app})
	if err != nil {
		return err
	}
	pkg, err := ldv.BuildServerIncluded(m, aud, []ldv.App{app})
	if err != nil {
		return err
	}
	sliceSize := pkg.SizeUnder(ldv.ProvDataDir)

	// Whole-table alternative: every table with at least one relevant tuple
	// ships completely (approximated by the on-disk table file size).
	var wholeSize int64
	fs := m.Kernel.FS()
	for table := range aud.RelevantTuples() {
		info, err := fs.Stat(m.DataDir + "/" + table + ".tbl")
		if err != nil {
			continue
		}
		wholeSize += info.Size
	}
	fmt.Fprintln(w, "Ablation 3: tuple-granularity slicing vs whole-table copy")
	fmt.Fprintf(w, "relevant-tuple files:    %s MB\n", mb(sliceSize))
	fmt.Fprintf(w, "whole touched tables:    %s MB\n", mb(wholeSize))
	if sliceSize > 0 {
		fmt.Fprintf(w, "whole-table blowup:      %.1fx\n", float64(wholeSize)/float64(sliceSize))
	}
	return nil
}
