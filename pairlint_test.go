package ldv

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldv/internal/obs"
)

// parsePackages parses the non-test files of the packages in dir — the one
// package walk the docs, codec, plan, trace and wait lints share.
func parsePackages(dir string, mode parser.Mode) (*token.FileSet, map[string]*ast.Package, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, mode)
	return fset, pkgs, err
}

// walkPackages calls fn for every directory of the module with Go files the
// build would accept — hidden directories, testdata and results skipped —
// with its slash path relative to the root and its parsed packages.
func walkPackages(t *testing.T, mode parser.Mode, fn func(rel string, fset *token.FileSet, pkgs map[string]*ast.Package)) {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "results") {
			return filepath.SkipDir
		}
		fset, pkgs, err := parsePackages(path, mode)
		if err != nil {
			return nil // no Go files here, or none the build would accept
		}
		rel, _ := filepath.Rel(root, path)
		fn(filepath.ToSlash(rel), fset, pkgs)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// pairRule is one begin/end discipline: the result of a begin call must be
// assigned to a variable and ended by a `defer` in the same function, so it
// is ended on every return path — panics and early error returns included.
// A begin whose scope is only part of a function is factored into a helper
// (engine.lockSlow, server.readClient); that is what keeps the check
// syntactic and total. It is name-based (no type information), which is
// exactly the point: adding an unrelated method named Child or End to the
// policed packages should make someone look at this lint.
type pairRule struct {
	what  string          // what a begin call starts, for messages
	begin map[string]bool // selector names of the begin calls (obs.StartSpan, parent.Child)
	end   string          // method the deferred call invokes on the variable; "" = the variable is the end function
}

func (r pairRule) deferForm(name string) string {
	if r.end == "" {
		return "defer " + name + "()"
	}
	return "defer " + name + "." + r.end + "()"
}

func (r pairRule) isBegin(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && r.begin[sel.Sel.Name]
}

// spanRule: anything returned by a span start owns a slot in the flight
// recorder until End is called; a span that is never ended keeps its whole
// trace open forever and the trace never reaches the recorder.
var spanRule = pairRule{what: "span", begin: map[string]bool{"StartSpan": true, "StartSpanIn": true, "Child": true}, end: "End"}

// waitRule: a wait that is never ended leaves its session published as
// waiting until the next wait overwrites it.
var waitRule = pairRule{what: "wait", begin: map[string]bool{"WaitBegin": true}}

// lintPairs checks one function against the rule, returning the number of
// begin calls and one message per violation.
func lintPairs(fset *token.FileSet, fd *ast.FuncDecl, rule pairRule) (sites int, problems []string) {
	// Pass 1: held variables — LHS identifiers of assignments whose RHS
	// contains a begin call (covers chained calls like
	// StartSpan(...).SetAttr(...)). Remember the begin-call positions so
	// pass 3 can spot calls outside any assignment.
	held := map[string]token.Pos{}
	assigned := map[token.Pos]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			found := false
			ast.Inspect(rhs, func(m ast.Node) bool {
				if _, ok := m.(*ast.FuncLit); ok {
					return false // its assignments are visited on their own
				}
				if call, ok := m.(*ast.CallExpr); ok && rule.isBegin(call) {
					found = true
					assigned[call.Pos()] = true
				}
				return true
			})
			if !found {
				continue
			}
			// With one RHS per LHS the positions line up; a multi-value RHS
			// (function call) taints every LHS conservatively.
			lhs := as.Lhs
			if len(as.Lhs) == len(as.Rhs) {
				lhs = as.Lhs[i : i+1]
			}
			for _, l := range lhs {
				if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
					held[id.Name] = as.Pos()
				}
			}
		}
		return true
	})

	// Pass 2: deferred ends — defer <ident>.End() or defer <ident>().
	ended := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		df, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		fun := df.Call.Fun
		if rule.end != "" {
			sel, ok := fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != rule.end {
				return true
			}
			fun = sel.X
		}
		if id, ok := fun.(*ast.Ident); ok {
			ended[id.Name] = true
		}
		return true
	})
	for name, pos := range held {
		if !ended[name] {
			problems = append(problems, fmt.Sprintf("%s: %s %q begun in %s has no `%s`",
				position(fset, pos), rule.what, name, fd.Name.Name, rule.deferForm(name)))
		}
	}

	// Pass 3: begin calls outside any assignment can never be ended.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !rule.isBegin(call) {
			return true
		}
		sites++
		if !assigned[call.Pos()] {
			problems = append(problems, fmt.Sprintf("%s: %s begun in %s and discarded — assign it and `%s`",
				position(fset, call.Pos()), rule.what, fd.Name.Name, rule.deferForm("<var>")))
		}
		return true
	})
	return sites, problems
}

func position(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%d:%d", p.Line, p.Column)
}

// checkPairs applies the rule to every function of the packages in dirs and
// returns how many begin calls it saw.
func checkPairs(t *testing.T, rule pairRule, dirs ...string) (sites int) {
	t.Helper()
	for _, dir := range dirs {
		fset, pkgs, err := parsePackages(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, pkg := range pkgs {
			for path, f := range pkg.Files {
				for _, decl := range f.Decls {
					fd, ok := decl.(*ast.FuncDecl)
					if !ok || fd.Body == nil {
						continue
					}
					n, problems := lintPairs(fset, fd, rule)
					sites += n
					for _, p := range problems {
						t.Errorf("%s: %s", filepath.Base(path), p)
					}
				}
			}
		}
	}
	return sites
}

// pairCase is one synthetic function body with the begin calls and problems
// the lint must find in it.
type pairCase struct {
	name  string
	body  string
	sites int
	want  int
}

func checkPairCases(t *testing.T, rule pairRule, cases []pairCase) {
	t.Helper()
	for _, tc := range cases {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "x.go", "package p\nfunc f() {\n"+tc.body+"\n}\n", 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sites, got := lintPairs(fset, f.Decls[0].(*ast.FuncDecl), rule)
		if sites != tc.sites {
			t.Errorf("%s: %d sites (want %d)", tc.name, sites, tc.sites)
		}
		if len(got) != tc.want {
			t.Errorf("%s: %d problems (want %d): %v", tc.name, len(got), tc.want, got)
		}
	}
}

// TestSpanEndDiscipline is the trace lint run by `make check`: in the
// packages on the request path, every span is ended by a `defer <var>.End()`
// in the function that started it. The obs package itself is exempt: it
// constructs spans internally. So is the one span a function cannot own:
// the client's per-statement span lives in its call from Conn.start to
// Conn.finish (a pipeline writes the whole batch in between); assigned to a
// field, it is not a held variable to this check.
func TestSpanEndDiscipline(t *testing.T) {
	checkPairs(t, spanRule, "internal/engine", "internal/server", "internal/client")
}

// TestSpanLintCatchesViolations proves the lint bites: un-ended spans,
// discarded span starts, and non-deferred Ends are all reported, while the
// blessed `sp := start; defer sp.End()` shape is not.
func TestSpanLintCatchesViolations(t *testing.T) {
	checkPairCases(t, spanRule, []pairCase{
		{"deferred end ok", `sp := obs.StartSpan("q"); defer sp.End(); _ = sp`, 1, 0},
		{"chained start ok", `sp := obs.StartSpan("q").SetAttr("k", "v"); defer sp.End(); _ = sp`, 1, 0},
		{"child ok", `sp := parent.Child("stage"); defer sp.End(); _ = sp`, 1, 0},
		{"no end", `sp := obs.StartSpan("q"); _ = sp`, 1, 1},
		{"non-deferred end", `sp := obs.StartSpan("q"); sp.End()`, 1, 1},
		{"discarded start", `parent.Child("stage")`, 1, 1},
		{"two leaks", `a := obs.StartSpan("q"); b := parent.Child("c"); _, _ = a, b`, 2, 2},
	})
}

// minWaitSites guards against the lint going vacuous: the engine and server
// instrument at least this many blocking points (table locks, the WAL
// group-commit flush, the replica read gate, the client read). Deleting an
// instrumentation site without updating the taxonomy should fail here.
const minWaitSites = 4

// TestWaitDiscipline is the wait lint run by `make check`. Two contracts:
// every obs.WaitBegin in the packages with instrumented blocking points (obs
// itself, which defines it, is exempt) has its end function called by a
// `defer <var>()` in the same function; and every wait event carries a
// description, with both of its cumulative metrics registered with help text
// so they render as # HELP lines on /metrics.
func TestWaitDiscipline(t *testing.T) {
	dirs := []string{"internal/engine", "internal/server"}
	if sites := checkPairs(t, waitRule, dirs...); sites < minWaitSites {
		t.Errorf("found %d WaitBegin sites in %v, want at least %d — instrumentation removed?", sites, dirs, minWaitSites)
	}
	for _, ev := range obs.WaitEvents() {
		if ev.Name() == "" {
			t.Errorf("wait event %d has no name", ev)
		}
		if ev.Description() == "" {
			t.Errorf("wait event %s has no description", ev.Name())
		}
		for _, metric := range []string{ev.CountMetric(), ev.NSMetric()} {
			if d, ok := obs.Description(metric); !ok || d == "" {
				t.Errorf("wait event %s: metric %s has no registered description (# HELP would be missing)",
					ev.Name(), metric)
			}
		}
	}
}

// TestWaitLintCatchesViolations proves the lint bites: un-ended waits,
// discarded WaitBegin results, and non-deferred end calls are all reported,
// while the blessed `end := obs.WaitBegin(...); defer end()` shape is not.
func TestWaitLintCatchesViolations(t *testing.T) {
	checkPairCases(t, waitRule, []pairCase{
		{"deferred end ok", `end := obs.WaitBegin(ws, obs.WaitLockTable); defer end()`, 1, 0},
		{"no end", `end := obs.WaitBegin(ws, obs.WaitLockTable); _ = end`, 1, 1},
		{"non-deferred end", `end := obs.WaitBegin(ws, obs.WaitLockTable); end()`, 1, 1},
		{"discarded begin", `obs.WaitBegin(ws, obs.WaitLockTable)`, 1, 1},
		{"two leaks", `a := obs.WaitBegin(ws, e1); b := obs.WaitBegin(ws, e2); _, _ = a, b`, 2, 2},
	})
}
