package geneva

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docName matches a document's reference to a package-level name,
// `internal/<pkg>.<Name>`, where <pkg> may be nested ("censor/gfw").
var docName = regexp.MustCompile(`internal/([a-z0-9/]+)\.([A-Z][A-Za-z0-9_]*)`)

// TestDocumentedNamesResolve checks that every internal/<pkg>.<Name> the
// documents cite is a top-level declaration in that package's non-test
// files, so a name that moves or is renamed cannot leave a stale
// reference behind.
func TestDocumentedNamesResolve(t *testing.T) {
	declared := map[string]map[string]bool{}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("reading %s: %v", doc, err)
		}
		for _, m := range docName.FindAllStringSubmatch(string(raw), -1) {
			dir := filepath.Join("internal", m[1])
			names, ok := declared[dir]
			if !ok {
				names = topLevelNames(t, dir)
				declared[dir] = names
			}
			if !names[m[2]] {
				t.Errorf("%s cites %s: %s declares no top-level %s", doc, m[0], dir, m[2])
			}
		}
	}
}

// topLevelNames returns the names a package directory's non-test files
// declare at top level: functions, types, variables and constants. A
// directory that holds no package declares nothing.
func topLevelNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil && !os.IsNotExist(err) {
		t.Fatalf("parsing %s: %v", dir, err)
	}
	names := map[string]bool{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							names[s.Name.Name] = true
						case *ast.ValueSpec:
							for _, n := range s.Names {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}
