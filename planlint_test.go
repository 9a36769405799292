package ldv

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// planNodeMethods is the full operator surface a plan node must carry: the
// Explainable triple (EXPLAIN rendering), Children (tree walking), and
// Lineage (provenance classification). A node missing any of these either
// fails to satisfy plan.Node — caught at compile time only once something
// stores it as a Node — or silently drops out of EXPLAIN and lineage
// tracking when the executor type-switches past it.
var planNodeMethods = []string{"Op", "Detail", "EstRows", "Children", "Lineage"}

// lintPlanNodes checks every exported `...Node` struct in the parsed files
// against the required method set. The check is name-based, like the trace
// lint: a struct named SomethingNode that is not an operator should be
// renamed, not exempted.
func lintPlanNodes(files map[string]*ast.File) []string {
	nodes := map[string]bool{}
	methods := map[string]map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !ts.Name.IsExported() || !strings.HasSuffix(ts.Name.Name, "Node") {
						continue
					}
					if _, isStruct := ts.Type.(*ast.StructType); isStruct {
						nodes[ts.Name.Name] = true
					}
				}
			case *ast.FuncDecl:
				if d.Recv == nil || len(d.Recv.List) != 1 {
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				id, ok := recv.(*ast.Ident)
				if !ok {
					continue
				}
				if methods[id.Name] == nil {
					methods[id.Name] = map[string]bool{}
				}
				methods[id.Name][d.Name.Name] = true
			}
		}
	}
	var problems []string
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, m := range planNodeMethods {
			if !methods[n][m] {
				problems = append(problems, fmt.Sprintf("plan node %s is missing method %s()", n, m))
			}
		}
	}
	if len(nodes) == 0 {
		problems = append(problems, "no plan node types found — package moved or lint gone stale?")
	}
	return problems
}

// TestPlanNodeSurface is the plan lint run by `make check`: every operator
// type in internal/plan implements the full explain + lineage surface.
func TestPlanNodeSurface(t *testing.T) {
	_, pkgs, err := parsePackages("internal/plan", 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["plan"]
	if !ok {
		t.Fatal("package plan not found under internal/plan")
	}
	for _, p := range lintPlanNodes(pkg.Files) {
		t.Error(p)
	}
}

// TestPlanLintCatchesViolations proves the lint bites on an operator type
// with an incomplete method set.
func TestPlanLintCatchesViolations(t *testing.T) {
	src := `package plan
type GoodNode struct{}
func (n *GoodNode) Op() string           { return "good" }
func (n *GoodNode) Detail() string       { return "" }
func (n *GoodNode) EstRows() float64     { return 0 }
func (n *GoodNode) Children() []Node     { return nil }
func (n *GoodNode) Lineage() LineageMode { return 0 }
type BadNode struct{}
func (n *BadNode) Op() string { return "bad" }
type notANode struct{}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "synthetic.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	problems := lintPlanNodes(map[string]*ast.File{"synthetic.go": f})
	if len(problems) != len(planNodeMethods)-1 {
		t.Fatalf("problems = %v, want %d (BadNode missing all but Op)", problems, len(planNodeMethods)-1)
	}
	for _, p := range problems {
		if !strings.Contains(p, "BadNode") {
			t.Errorf("unexpected problem %q", p)
		}
	}
}
