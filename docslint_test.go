package ldv

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ldv/internal/bench"
)

// TestPackageDocComments is the docs lint run by `make check`: every
// package in the module (the root, internal/..., cmd/..., examples/...)
// must carry a godoc package comment stating its role. Doc comments are
// the contract ARCHITECTURE.md's package map summarizes; a package without
// one is invisible to godoc and to the next reader.
func TestPackageDocComments(t *testing.T) {
	walkPackages(t, parser.ParseComments|parser.PackageClauseOnly, func(rel string, _ *token.FileSet, pkgs map[string]*ast.Package) {
		for pkgName, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package doc comment", pkgName, rel)
			}
		}
	})
}

// TestDocReferences is the docs-reference lint run by `make check`: every
// code span of every Markdown file in the tree (inline `…` and each line of
// a fenced block) that names something the repository must provide has to
// name something that exists — `make <target>` a Makefile target,
// results/<file> a committed file under results/, and `ldv-bench -exp <id>`
// an experiment registered in bench.ExperimentNames() (or all). A deleted
// target, record or experiment thereby takes its last mention with it.
func TestDocReferences(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTargetRE.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}
	experiments := map[string]bool{"all": true}
	for _, name := range bench.ExperimentNames() {
		experiments[name] = true
	}
	known := func(kind, name string) bool {
		switch kind {
		case refMake:
			return targets[name]
		case refResults:
			_, err := os.Stat(filepath.Join("results", name))
			return err == nil
		default:
			return experiments[name]
		}
	}
	docs := 0
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		text, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		docs++
		for _, p := range lintDocRefs(filepath.ToSlash(path), string(text), known) {
			t.Error(p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if docs < 5 || len(targets) < 5 {
		t.Fatalf("read %d Markdown files and %d make targets — is the test running from the repository root?", docs, len(targets))
	}
}

// TestDocReferenceLintCatchesViolations proves the lint bites on a missing
// target, results file and experiment, inline and in a fenced block, and
// accepts the shapes the docs use.
func TestDocReferenceLintCatchesViolations(t *testing.T) {
	known := func(kind, name string) bool {
		return map[string]bool{
			refMake + " check": true, refMake + " bench": true,
			refResults + " fig9.txt": true,
			refExperiment + " fig9":  true, refExperiment + " all": true,
		}[kind+" "+name]
	}
	for _, tc := range []struct {
		name, doc string
		want      int
	}{
		{"make ok", "run `make check` then `make bench`", 0},
		{"make two targets", "`make check bench`", 0},
		{"make missing", "run `make ash-bench`", 1},
		{"make in fence", "```console\n$ make gone\n```\n", 1},
		{"make prose", "make gone happen, or `makefile gone`", 0},
		{"make placeholder", "`make <target>`, `make GO=go1.22 -k check`", 0},
		{"results ok", "see `results/fig9.txt`.", 0},
		{"results missing", "see `results/ash.txt`", 1},
		{"results other dir", "`benchmark/results/ash.txt`", 0},
		{"results glob", "`results/*.txt`", 0},
		{"results in a command", "`ldv-bench -exp fig9 | tee results/gone.txt`", 1},
		{"exp ok", "`go run ./cmd/ldv-bench -exp fig9 -sf 0.02`", 0},
		{"exp all", "`ldv-bench -exp all`", 0},
		{"exp missing", "`ldv-bench -stats -exp tracing`", 1},
		{"exp placeholder", "`ldv-bench -exp <id>`", 0},
		{"exp in fence", "```\n$ go run ./cmd/ldv-bench -exp ash\n```\n`ldv-bench -exp ash`", 2},
		{"exp prose", "ldv-bench -exp tracing", 0},
	} {
		if got := lintDocRefs("x.md", tc.doc, known); len(got) != tc.want {
			t.Errorf("%s: %d problems (want %d): %v", tc.name, len(got), tc.want, got)
		}
	}
}

// The kinds of reference a document can make.
const (
	refMake       = "make target"
	refResults    = "results file"
	refExperiment = "ldv-bench experiment"
)

var (
	makeTargetRE = regexp.MustCompile(`(?m)^([\w.-]+)\s*:(?:[^=]|$)`)
	targetNameRE = regexp.MustCompile(`^\w[\w.-]*$`) // not a flag, VAR=value or <placeholder>
	codeSpanRE   = regexp.MustCompile("`[^`\n]+`")
	resultsRE    = regexp.MustCompile(`(?:^|[^\w./-])results/(\w[\w.-]*\w)`)
	experimentRE = regexp.MustCompile(`ldv-bench\b.*?\s-exp[ =]([a-z][a-z0-9_]*)`)
)

// lintDocRefs reports every reference in one Markdown document's code spans
// that known does not accept.
func lintDocRefs(path, doc string, known func(kind, name string) bool) []string {
	var problems []string
	check := func(line int, kind, name string) {
		if !known(kind, name) {
			problems = append(problems, fmt.Sprintf("%s:%d: %s %q does not exist", path, line, kind, name))
		}
	}
	inFence := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		spans := []string{strings.TrimSpace(line)}
		if !inFence {
			spans = spans[:0]
			for _, s := range codeSpanRE.FindAllString(line, -1) {
				spans = append(spans, strings.Trim(s, "`"))
			}
		}
		for _, span := range spans {
			if fields := strings.Fields(strings.TrimPrefix(span, "$ ")); len(fields) > 0 && fields[0] == "make" {
				for _, f := range fields[1:] {
					if strings.HasPrefix(f, "#") {
						break
					}
					if targetNameRE.MatchString(f) {
						check(i+1, refMake, f)
					}
				}
			}
			for _, m := range resultsRE.FindAllStringSubmatch(span, -1) {
				check(i+1, refResults, m[1])
			}
			for _, m := range experimentRE.FindAllStringSubmatch(span, -1) {
				check(i+1, refExperiment, m[1])
			}
		}
	}
	return problems
}
