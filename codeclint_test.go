package ldv

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"testing"
)

// codecExempt is where the primitive binary encoding may be spelled out:
// internal/bin, which every format decodes through, and the value codec,
// whose row decode runs once per stored value of every table load.
var codecExempt = map[string]bool{"internal/bin": true, "internal/sqlval/codec.go": true}

// lintCodec reports what would start a codec of its own in f: a call of
// encoding/binary's Uvarint or Varint (a cursor with its own bounds rule),
// or a declared appendString / readString over a []byte (the string
// primitive, copied). Like the other lints it goes by name, without type
// information.
func lintCodec(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				break
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "binary" && (sel.Sel.Name == "Uvarint" || sel.Sel.Name == "Varint") {
				problems = append(problems, fmt.Sprintf("%s: binary.%s: decode through bin.Reader", fset.Position(n.Pos()), sel.Sel.Name))
			}
		case *ast.FuncDecl:
			if (n.Name.Name == "appendString" || n.Name.Name == "readString") && hasByteSlice(n.Type) {
				problems = append(problems, fmt.Sprintf("%s: %s: use bin.AppendString or bin.Reader.Str", fset.Position(n.Pos()), n.Name.Name))
			}
		}
		return true
	})
	return problems
}

// hasByteSlice reports whether a parameter or result of ft is a []byte.
func hasByteSlice(ft *ast.FuncType) bool {
	for _, fields := range []*ast.FieldList{ft.Params, ft.Results} {
		if fields == nil {
			continue
		}
		for _, field := range fields.List {
			if at, ok := field.Type.(*ast.ArrayType); ok && at.Len == nil {
				if elt, ok := at.Elt.(*ast.Ident); ok && elt.Name == "byte" {
					return true
				}
			}
		}
	}
	return false
}

// TestOneBinaryCodec is the codec lint run by `make check`: outside
// codecExempt no non-test file decodes a varint with encoding/binary or
// declares its own string primitive, so table and stamps files, WAL records,
// traces, packages and wire frames keep decoding through one bounds-checked
// cursor.
func TestOneBinaryCodec(t *testing.T) {
	linted := map[string]bool{}
	walkPackages(t, 0, func(rel string, fset *token.FileSet, pkgs map[string]*ast.Package) {
		for _, pkg := range pkgs {
			for file, f := range pkg.Files {
				if codecExempt[rel] || codecExempt[rel+"/"+filepath.Base(file)] {
					continue
				}
				linted[rel+"/"+filepath.Base(file)] = true
				for _, p := range lintCodec(fset, f) {
					t.Error(p)
				}
			}
		}
	})
	if len(linted) < 100 {
		t.Errorf("the codec lint checked %d files: the walk went wrong", len(linted))
	}
	// The decoders of the data directory's files, outside input.
	for _, f := range []string{"internal/engine/persist.go", "internal/engine/wal.go"} {
		if !linted[f] {
			t.Errorf("the codec lint did not check %s", f)
		}
	}
}

// TestCodecLintCatchesViolations proves the lint bites: a varint decoded
// with encoding/binary and a string primitive over []byte are reported,
// while appending varints, reading through bin, and an unrelated
// appendString are not.
func TestCodecLintCatchesViolations(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      int
	}{
		{"Uvarint", "func f(b []byte) { x, n := binary.Uvarint(b); _, _ = x, n }", 1},
		{"Varint", "func f(b []byte) int64 { x, _ := binary.Varint(b); return x }", 1},
		{"appendString", "func appendString(b []byte, s string) []byte { return append(b, s...) }", 1},
		{"readString", "func readString(b []byte) (string, []byte, error) { return \"\", b, nil }", 1},
		{"two calls", "func f(b []byte) { binary.Uvarint(b); binary.Varint(b) }", 2},
		{"append ok", "func f(b []byte) []byte { return binary.AppendUvarint(b, 1) }", 0},
		{"bin ok", "func f(b []byte) uint64 { return bin.NewReader(b).Uvarint() }", 0},
		{"no []byte ok", "func appendString(sb *strings.Builder, s string) { sb.WriteString(s) }", 0},
	} {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "x.go", "package p\n"+tc.src+"\n", 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := lintCodec(fset, f); len(got) != tc.want {
			t.Errorf("%s: %d problems (want %d): %v", tc.name, len(got), tc.want, got)
		}
	}
}
