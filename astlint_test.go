package ldv

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"sort"
	"strings"
	"testing"
)

// lintExprWalk checks sqlparse.Walk against the expression types declared
// beside it: every type with an exprNode method is a case of Walk's type
// switch, and every field of it that holds more of the tree — an Expr, an
// []Expr, a *Select — is either read in that case or named in a
// `// skip: Field` comment on the case line. Walk is the one descent over
// the expression kinds (what searches an expression passes it a closure), so
// a new kind or a new operand is added there and nowhere else; this lint is
// what notices when it was not. Name-based, like its siblings.
func lintExprWalk(fset *token.FileSet, f *ast.File) []string {
	exprs := map[string]bool{}        // types with an exprNode method
	operands := map[string][]string{} // struct type -> its Expr / []Expr / *Select fields
	var walk *ast.FuncDecl
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, fld := range st.Fields.List {
					switch typeText(fld.Type) {
					case "Expr", "[]Expr", "*Select":
						for _, name := range fld.Names {
							operands[ts.Name.Name] = append(operands[ts.Name.Name], name.Name)
						}
					}
				}
			}
		case *ast.FuncDecl:
			switch {
			case d.Recv == nil && d.Name.Name == "Walk":
				walk = d
			case d.Recv != nil && d.Name.Name == "exprNode" && len(d.Recv.List) == 1:
				exprs[strings.TrimPrefix(typeText(d.Recv.List[0].Type), "*")] = true
			}
		}
	}
	if walk == nil {
		return []string{"no func Walk found — moved, or lint gone stale?"}
	}
	if len(exprs) == 0 {
		return []string{"no expression types (exprNode methods) found — moved, or lint gone stale?"}
	}

	// `// skip: A, B` comments, by line.
	skips := map[int][]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, "// skip:"); ok {
				for _, name := range strings.Split(rest, ",") {
					skips[fset.Position(c.Pos()).Line] = append(skips[fset.Position(c.Pos()).Line], strings.TrimSpace(name))
				}
			}
		}
	}

	var problems []string
	cased := map[string]bool{}
	ast.Inspect(walk.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		bound := "" // the x of `switch x := e.(type)`
		if as, ok := sw.Assign.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
			bound = typeText(as.Lhs[0])
		}
		for _, stmt := range sw.Body.List {
			cc := stmt.(*ast.CaseClause)
			read := map[string]bool{}
			for _, s := range cc.Body {
				ast.Inspect(s, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok && typeText(sel.X) == bound {
						read[sel.Sel.Name] = true
					}
					return true
				})
			}
			skipped := skips[fset.Position(cc.Case).Line]
			for _, texpr := range cc.List {
				name := strings.TrimPrefix(typeText(texpr), "*")
				cased[name] = true
				if !exprs[name] {
					problems = append(problems, fmt.Sprintf("Walk has a case for %s, which is not an expression type", name))
				}
				for _, fld := range operands[name] {
					if !read[fld] && !slices.Contains(skipped, fld) {
						problems = append(problems, fmt.Sprintf("Walk's case for %s neither visits nor skips its field %s", name, fld))
					}
				}
				for _, fld := range skipped {
					if !slices.Contains(operands[name], fld) {
						problems = append(problems, fmt.Sprintf("Walk's case for %s skips %s, which is not an operand field of it", name, fld))
					}
				}
			}
		}
		return false
	})
	names := make([]string, 0, len(exprs))
	for n := range exprs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !cased[n] {
			problems = append(problems, fmt.Sprintf("expression type %s is not a case of Walk", n))
		}
	}
	return problems
}

// typeText renders the few type and operand shapes the lint compares:
// T, *T, []T.
func typeText(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return "*" + typeText(x.X)
	case *ast.ArrayType:
		if x.Len == nil {
			return "[]" + typeText(x.Elt)
		}
	}
	return ""
}

// TestExprWalkCoversEveryKind is the AST lint run by `make check`.
func TestExprWalkCoversEveryKind(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/sqlparse/ast.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range lintExprWalk(fset, f) {
		t.Error(p)
	}
}

// TestExprWalkLintCatchesViolations proves the lint bites: on a kind Walk
// does not know, an operand it forgets, a skip of nothing, a case for a
// type that is no expression.
func TestExprWalkLintCatchesViolations(t *testing.T) {
	const decls = `package sqlparse
type Expr interface{ exprNode() }
type Select struct{ Where Expr }
type Leaf struct{ Name string }
type Pair struct{ Left, Right Expr }
type Call struct{ Args []Expr; Sub *Select }
type Case struct{ When Expr }
func (*Leaf) exprNode() {}
func (*Pair) exprNode() {}
func (*Call) exprNode() {}
func (*Case) exprNode() {}
`
	cases := []struct {
		name string
		walk string
		want []string // a substring of each expected problem, in order
	}{
		{"complete", `func Walk(e Expr, f func(Expr) bool) {
	switch x := e.(type) {
	case *Leaf:
	case *Pair:
		Walk(x.Left, f)
		Walk(x.Right, f)
	case *Call: // skip: Sub
		for _, a := range x.Args {
			Walk(a, f)
		}
	case *Case:
		Walk(x.When, f)
	}
}`, nil},
		{"a kind, an operand and a skip forgotten", `func Walk(e Expr, f func(Expr) bool) {
	switch x := e.(type) {
	case *Leaf:
	case *Pair:
		Walk(x.Left, f)
	case *Call:
		for _, a := range x.Args {
			Walk(a, f)
		}
	}
}`, []string{"Pair neither visits nor skips its field Right", "Call neither visits nor skips its field Sub", "Case is not a case of Walk"}},
		{"a skip of nothing and a case for a non-expression", `func Walk(e Expr, f func(Expr) bool) {
	switch x := e.(type) {
	case *Leaf: // skip: Name
	case *Pair: // skip: Left, Right
	case *Call: // skip: Args, Sub
	case *Case, *Select: // skip: When
		_ = x
	}
}`, []string{"Leaf skips Name", "Select, which is not an expression type", "Select neither visits nor skips its field Where", "Select skips When"}},
		{"no Walk", `func walk() {}`, []string{"no func Walk"}},
	}
	for _, c := range cases {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "synthetic.go", decls+c.walk, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := lintExprWalk(fset, f)
		if len(got) != len(c.want) {
			t.Errorf("%s: problems = %q, want %d", c.name, got, len(c.want))
			continue
		}
		for i, w := range c.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: problem %d = %q, want it to mention %q", c.name, i, got[i], w)
			}
		}
	}
}
