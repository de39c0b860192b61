package fsoi

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDESIGNModuleMap: DESIGN §3's module map is rendered from the doc
// comment of every package under internal/ and cmd/, one row each with
// the comment's first sentence, and fails when the two differ. A
// package's doc comment sits in exactly one file, so a file comment
// placed on another file's package clause cannot become its synopsis.
// To refresh the map, paste the block this test prints.
func TestDESIGNModuleMap(t *testing.T) {
	const begin, end = "<!-- modules: generated from each package's doc comment (TestDESIGNModuleMap) -->\n", "<!-- /modules -->\n"
	var b strings.Builder
	b.WriteString(begin + "| package | what it is (the first sentence of its doc comment) |\n|---|---|\n")
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			names, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil {
				return err
			}
			fset := token.NewFileSet()
			var files, documented []*ast.File
			for _, name := range names {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				f, err := parser.ParseFile(fset, name, nil, parser.PackageClauseOnly|parser.ParseComments)
				if err != nil {
					return err
				}
				files = append(files, f)
				if f.Doc != nil {
					documented = append(documented, f)
				}
			}
			if len(files) == 0 {
				return nil
			}
			if len(documented) != 1 {
				t.Errorf("%s: %d files carry a package doc comment, want 1", dir, len(documented))
			}
			p, err := doc.NewFromFiles(fset, files, "fsoi/"+filepath.ToSlash(dir))
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "| `%s` | %s |\n", filepath.ToSlash(dir), strings.ReplaceAll(p.Synopsis(p.Doc), "|", `\|`))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	b.WriteString(end)
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(design), begin)
	block, _, closed := strings.Cut(rest, end)
	if want := b.String(); !ok || !closed || begin+block+end != want {
		t.Errorf("DESIGN's module map differs from the package docs; want:\n%s", want)
	}
}
