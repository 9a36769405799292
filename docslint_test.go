package ldv

import (
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestPackageDocComments is the docs lint run by `make check`: every
// package in the module (the root, internal/..., cmd/..., examples/...)
// must carry a godoc package comment stating its role. Doc comments are
// the contract ARCHITECTURE.md's package map summarizes; a package without
// one is invisible to godoc and to the next reader.
func TestPackageDocComments(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") || name == "testdata" || name == "results" {
			if path != root {
				return filepath.SkipDir
			}
		}
		_, pkgs, err := parsePackages(path, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			// Directories without Go files (or with unparsable ones the
			// build would reject anyway) are not this lint's business.
			return nil
		}
		for pkgName, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("package %s (%s) has no package doc comment", pkgName, rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
