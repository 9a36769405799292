package ldv

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
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
