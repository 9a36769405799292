package ldv

import (
	"fmt"
	"go/ast"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ldv/internal/wire"
)

// protoHeading matches a message-kind section heading in PROTOCOL.md:
//
//	### Query ('Q')
//
// The kind name and quoted tag byte are captured so the lint can check
// them against the implementation.
var protoHeading = regexp.MustCompile(`(?m)^### ([A-Za-z]+) \('(.)'\)\s*$`)

// TestProtocolDoc is the proto lint run by `make check`: PROTOCOL.md is
// the canonical protocol reference, so it must document exactly the
// message kinds the wire package implements. Both directions are checked —
// a kind added to wire.Tags() without a PROTOCOL.md section fails, and so
// does a documented kind that no longer exists (or whose tag byte
// changed).
func TestProtocolDoc(t *testing.T) {
	doc, err := os.ReadFile("PROTOCOL.md")
	if err != nil {
		t.Fatalf("reading PROTOCOL.md: %v", err)
	}

	documented := map[string]byte{} // kind name -> tag byte
	for _, m := range protoHeading.FindAllStringSubmatch(string(doc), -1) {
		name, tag := m[1], m[2][0]
		if prev, dup := documented[name]; dup {
			t.Errorf("PROTOCOL.md documents %s twice (tags %q and %q)", name, prev, tag)
		}
		documented[name] = tag
	}
	if len(documented) == 0 {
		t.Fatal("PROTOCOL.md has no kind headings matching `### Name ('T')`")
	}

	// Implementation -> doc: every tag needs a section with the right byte.
	implemented := map[string]byte{}
	for _, tag := range wire.Tags() {
		name := wire.TagName(tag)
		if name == "unknown" {
			t.Errorf("wire.Tags() contains %q but TagName does not know it", tag)
			continue
		}
		implemented[name] = tag
		docTag, ok := documented[name]
		if !ok {
			t.Errorf("wire kind %s (tag %q) has no PROTOCOL.md section; add `### %s (%s)`",
				name, tag, name, fmt.Sprintf("'%c'", tag))
			continue
		}
		if docTag != tag {
			t.Errorf("PROTOCOL.md documents %s with tag %q, implementation uses %q", name, docTag, tag)
		}
	}

	// Doc -> implementation: no stale sections.
	for name, tag := range documented {
		implTag, ok := implemented[name]
		if !ok {
			t.Errorf("PROTOCOL.md documents kind %s (tag %q) that wire does not implement", name, tag)
			continue
		}
		if implTag != tag {
			// Already reported above from the other direction; keep the
			// message symmetric for doc-first readers.
			t.Errorf("PROTOCOL.md kind %s tag %q does not match implementation tag %q", name, tag, implTag)
		}
	}
}

// TestProtocolFieldTables is the other half of the proto lint: each kind
// section's field table names exactly the exported fields of that kind's
// message struct in internal/wire, in declaration order, which is the order
// the frame carries them — no table for a kind without fields — so a field
// added, renamed, moved or deleted in the code cannot leave PROTOCOL.md
// describing another frame.
func TestProtocolFieldTables(t *testing.T) {
	doc, err := os.ReadFile("PROTOCOL.md")
	if err != nil {
		t.Fatalf("reading PROTOCOL.md: %v", err)
	}
	documented := map[string][]string{} // kind name -> field names of its table
	for _, loc := range protoHeading.FindAllStringSubmatchIndex(string(doc), -1) {
		section := string(doc[loc[1]:])
		if end := strings.Index(section, "\n#"); end >= 0 {
			section = section[:end]
		}
		documented[string(doc[loc[2]:loc[3]])] = tableFields(section)
	}

	_, pkgs, err := parsePackages("internal/wire", 0)
	if err != nil {
		t.Fatal(err)
	}
	structs := map[string][]string{} // type name -> exported field names
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					fields := []string{}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if name.IsExported() {
								fields = append(fields, name.Name)
							}
						}
					}
					structs[ts.Name.Name] = fields
				}
				return false
			})
		}
	}

	for _, tag := range wire.Tags() {
		kind := wire.TagName(tag)
		want, ok := structs[kind]
		if !ok {
			t.Errorf("wire kind %s has no struct type %s in internal/wire", kind, kind)
			continue
		}
		got, ok := documented[kind]
		if !ok {
			continue // TestProtocolDoc reports the missing section
		}
		if !slices.Equal(got, want) {
			t.Errorf("PROTOCOL.md's %s table names fields %v, wire.%s has %v", kind, got, kind, want)
		}
	}
}

// tableFields returns the first cells of the body rows of the first table
// in a section (the rows after its header and separator), or an empty list
// when the section has no table.
func tableFields(section string) []string {
	fields := []string{}
	row := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if row > 0 {
				break
			}
			continue
		}
		if row++; row > 2 {
			fields = append(fields, strings.TrimSpace(strings.Split(line, "|")[1]))
		}
	}
	return fields
}
