package ldv

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// traceWriters is where internal/ldv may build trace structure, as
// file:function: the fold of the audit log, which runs once monitoring has
// stopped. The per-statement path under Auditor.mu only interns tuple nodes
// (the §VII-D step) and appends a record.
var traceWriters = map[string]bool{
	"fold.go:traceFold.event":     true,
	"fold.go:traceFold.statement": true,
}

// traceBuilders are the prov.Trace methods that build structure beyond a
// node, by name and argument count. The count tells Trace.SetAttr (node,
// attribute, value) from obs.Span's SetAttr (key, value), which the replay
// path calls: like the other lints this one has no type information.
var traceBuilders = map[string]int{"Link": 5, "LinkRun": 6, "LinkDep": 2, "SetAttr": 3}

// lintTraceWrites returns, by declName, the declarations of f that call a
// trace builder.
func lintTraceWrites(fset *token.FileSet, f *ast.File) map[string][]string {
	writes := map[string][]string{}
	for _, d := range f.Decls {
		name := declName(d)
		ast.Inspect(d, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if nargs, ok := traceBuilders[sel.Sel.Name]; ok && len(call.Args) == nargs {
				writes[name] = append(writes[name], fmt.Sprintf("%s: %s", fset.Position(call.Pos()), sel.Sel.Name))
			}
			return true
		})
	}
	return writes
}

// TestOnlyTheFoldBuildsTheTrace is the fold lint run by `make check`: in
// internal/ldv only the fold links edges, records dependencies and sets
// attributes, so the statement path stays the §VII-D step and one append —
// and each fold function still builds the trace.
func TestOnlyTheFoldBuildsTheTrace(t *testing.T) {
	fset, pkgs, err := parsePackages(filepath.Join("internal", "ldv"), 0)
	if err != nil {
		t.Fatal(err)
	}
	linted, seen := 0, map[string]bool{}
	for _, pkg := range pkgs {
		for file, f := range pkg.Files {
			linted++
			for name, sites := range lintTraceWrites(fset, f) {
				site := filepath.Base(file) + ":" + name
				if traceWriters[site] {
					seen[site] = true
					continue
				}
				for _, s := range sites {
					t.Errorf("%s: only the audit log's fold builds the trace", s)
				}
			}
		}
	}
	if linted < 10 {
		t.Errorf("the fold lint checked %d files of internal/ldv: the parse went wrong", linted)
	}
	for site := range traceWriters {
		if !seen[site] {
			t.Errorf("%s builds no trace structure: drop it from traceWriters", site)
		}
	}
}

// TestFoldLintCatchesViolations proves the lint bites: an edge linked, a
// run, a dependency and an attribute set on the statement path, and one
// inside a closure, are reported by the declaration they sit in, while
// interning a node and setting a span attribute are not.
func TestFoldLintCatchesViolations(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      []string
	}{
		{"link", "func (a *Auditor) relevance() { a.trace.Link(p, s, prov.EdgeRun, iv, 0) }", []string{"Auditor.relevance"}},
		{"run", "func (ic *auditInterceptor) AfterQuery() { tr.LinkRun(s, nodes, false, l, iv, id) }", []string{"auditInterceptor.AfterQuery"}},
		{"dep", "func (a *Auditor) OnEvent() { _ = a.trace.LinkDep(x, y) }", []string{"Auditor.OnEvent"}},
		{"attr in closure", "func record() { f := func() { tr.SetAttr(r, prov.AttrSQL, sql) }; f() }", []string{"record"}},
		{"fold", "func (f *traceFold) statement() { tr.LinkDep(x, y); tr.SetAttr(r, a, v) }", []string{"traceFold.statement"}},
		{"intern ok", "func (a *Auditor) relevance() { a.trace.Intern(k, prov.TypeTuple); a.trace.TupleKey(t, 0, 0) }", nil},
		{"span attr ok", "func run() { sp.Child(\"replay.app\").SetAttr(\"binary\", b) }", nil},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "x.go", "package p\n"+tc.src+"\n", 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := lintTraceWrites(fset, f)
		if len(got) != len(tc.want) {
			t.Errorf("%s: writers %v, want %v", tc.name, got, tc.want)
		}
		for _, name := range tc.want {
			if len(got[name]) == 0 {
				t.Errorf("%s: writers %v, want a write in %q", tc.name, got, name)
			}
		}
	}
}
