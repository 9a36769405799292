package ldv

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// stampWriters is where prov_usedby may be written, as file:function: the
// one stamp site, lineageSink.finish, which stamps a statement's version set
// at the result boundary, and the table-file decoders that load stamps back.
var stampWriters = map[string]bool{
	"internal/engine/lineage.go:lineageSink.finish":  true,
	"internal/engine/persist.go:stampsImage.apply":   true,
	"internal/engine/persist.go:tableImage.loadRows": true,
}

// declName names a top-level declaration for stampWriters: Recv.Name for a
// method, Name for a function, "" for anything else.
func declName(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok {
		return ""
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// lintStampWrites returns, by declName, the declarations of f that write a
// usedBy field: call any method of it but Load. Like the other lints it goes
// by name, without type information.
func lintStampWrites(fset *token.FileSet, f *ast.File) map[string][]string {
	writes := map[string][]string{}
	for _, d := range f.Decls {
		name := declName(d)
		ast.Inspect(d, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name == "Load" {
				return true
			}
			if field, ok := sel.X.(*ast.SelectorExpr); ok && field.Sel.Name == "usedBy" {
				writes[name] = append(writes[name], fmt.Sprintf("%s: usedBy.%s", fset.Position(call.Pos()), sel.Sel.Name))
			}
			return true
		})
	}
	return writes
}

// TestOneStampWriter is the stamp lint run by `make check`: prov_usedby is
// written only where stampWriters says — so it stays the last statement
// whose version set held the version, which no scan, DML loop or replay
// writes on its own — and each of those places still writes it.
func TestOneStampWriter(t *testing.T) {
	linted, seen := 0, map[string]bool{}
	walkPackages(t, 0, func(rel string, fset *token.FileSet, pkgs map[string]*ast.Package) {
		for _, pkg := range pkgs {
			for file, f := range pkg.Files {
				linted++
				for name, sites := range lintStampWrites(fset, f) {
					site := rel + "/" + filepath.Base(file) + ":" + name
					if stampWriters[site] {
						seen[site] = true
						continue
					}
					for _, s := range sites {
						t.Errorf("%s: prov_usedby is stamped only by lineageSink.finish", s)
					}
				}
			}
		}
	})
	if linted < 100 {
		t.Errorf("the stamp lint checked %d files: the walk went wrong", linted)
	}
	for site := range stampWriters {
		if !seen[site] {
			t.Errorf("%s writes no usedBy: drop it from stampWriters", site)
		}
	}
}

// TestStampLintCatchesViolations proves the lint bites: a stamp in a scan
// loop, a Swap, a stamp inside a closure and one in a package-level
// initializer are reported, by the declaration they sit in, while reading a
// stamp and storing some other field are not.
func TestStampLintCatchesViolations(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      []string
	}{
		{"scan stamp", "func (sc *leafScan) run(rows []*storedRow) { for _, r := range rows { r.usedBy.Store(sc.stmt) } }", []string{"leafScan.run"}},
		{"swap", "func stamp(r *storedRow) int64 { return r.usedBy.Swap(1) }", []string{"stamp"}},
		{"closure", "func (ec *stmtCtx) execUpdate() { f := func(r *storedRow) { r.usedBy.Store(1) }; _ = f }", []string{"stmtCtx.execUpdate"}},
		{"initializer", "var _ = func(r *storedRow) { r.usedBy.Store(2) }", []string{""}},
		{"two writers", "func a(r *storedRow) { r.usedBy.Store(1) }\nfunc b(r *storedRow) { r.usedBy.Add(1) }", []string{"a", "b"}},
		{"load ok", "func f(r *storedRow) int64 { return r.usedBy.Load() }", nil},
		{"other field ok", "func f(t *Table) { t.stamps.Store(0); t.mutations.Add(1) }", nil},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "x.go", "package p\n"+tc.src+"\n", 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := lintStampWrites(fset, f)
		if len(got) != len(tc.want) {
			t.Errorf("%s: writers %v, want %v", tc.name, got, tc.want)
		}
		for _, name := range tc.want {
			if len(got[name]) != 1 {
				t.Errorf("%s: writers %v, want one write in %q", tc.name, got, name)
			}
		}
	}
}
