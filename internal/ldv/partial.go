package ldv

import (
	"fmt"

	"ldv/internal/deps"
	"ldv/internal/osim"
	"ldv/internal/pack"
	"ldv/internal/prov"
)

// NeededBinaries analyses a combined execution trace and returns the
// application binaries (a subset of candidates, order preserved) required
// to regenerate the given output file — the paper's partial re-execution
// analysis (§II item ii, §IV): a binary is needed when one of its processes
// produced the output or produced an entity the output temporally depends
// on (Definition 11).
func NeededBinaries(tr *prov.Trace, outputPath string, candidates []string) ([]string, error) {
	outID := FileNodeID(outputPath)
	out := tr.Node(outID)
	if out == nil {
		return nil, fmt.Errorf("partial replay: output %q not in trace", outputPath)
	}
	inf := deps.NewDefaultInferencer(tr)

	// Entities the output depends on, plus the output itself (its direct
	// producers are needed too).
	needed := []prov.Ref{out.Ref}
	for _, d := range inf.Dependencies(outID) {
		needed = append(needed, tr.Node(d).Ref)
	}

	// Processes that produced a needed entity: writers of needed files and
	// the runners of statements that returned needed tuples.
	adj, edges := tr.Adjacency(), tr.Edges()
	procs := map[prov.Ref]bool{}
	for _, n := range needed {
		for _, ei := range adj.In(n) {
			e := edges[ei]
			switch tr.EdgeLabel(e) {
			case prov.EdgeHasWritten:
				procs[e.From] = true
			case prov.EdgeHasReturned:
				for _, ri := range adj.In(e.From) {
					if run := edges[ri]; tr.EdgeLabel(run) == prov.EdgeRun {
						procs[run.From] = true
					}
				}
			}
		}
	}

	// Expand each needed process through its executed-ancestor chain: if a
	// child process did the work, its root application binary must run.
	binaries := map[string]bool{}
	var walk func(proc prov.Ref)
	walk = func(proc prov.Ref) {
		if b := tr.Attr(proc, prov.AttrBinary); b != "" {
			binaries[b] = true
		}
		for _, ei := range adj.In(proc) {
			if e := edges[ei]; tr.EdgeLabel(e) == prov.EdgeExecuted {
				walk(e.From)
			}
		}
	}
	for p := range procs {
		walk(p)
	}

	var result []string
	for _, c := range candidates {
		if binaries[c] {
			result = append(result, c)
		}
	}
	return result, nil
}

// PartialReplay re-executes only the part of a server-included package
// needed to regenerate outputPath, skipping application binaries the output
// does not depend on. Server-excluded packages carry no trace (§VIII) and
// cannot be partially replayed.
func PartialReplay(arch *pack.Archive, programs map[string]osim.Program, outputPath string) (*Machine, []string, error) {
	tr, err := ReadTrace(arch)
	if err != nil {
		return nil, nil, fmt.Errorf("partial replay needs a server-included package with a trace: %w", err)
	}
	setup, err := PrepareReplay(arch, programs)
	if err != nil {
		return nil, nil, err
	}
	defer ClearRuntime(setup.Machine.Kernel)

	candidates := make([]string, len(setup.Apps))
	for i, a := range setup.Apps {
		candidates[i] = a.Binary
	}
	needed, err := NeededBinaries(tr, outputPath, candidates)
	if err != nil {
		return nil, nil, err
	}
	neededSet := map[string]bool{}
	for _, b := range needed {
		neededSet[b] = true
	}

	runErr := setup.Machine.runApps(setup.Machine.Kernel.Start("ldv-exec-partial"), setup.Apps, appRun{
		server: setup.Manifest.Type == TypeServerIncluded,
		keep:   func(binary string) bool { return neededSet[binary] },
		appErr: "partial replay %s: %w"})
	if runErr != nil {
		return nil, nil, runErr
	}
	return setup.Machine, needed, nil
}
