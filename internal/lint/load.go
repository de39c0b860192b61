package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one parsed and type-checked package, the unit every
// analyzer operates on.
type Package struct {
	// ImportPath is the package's import path ("fsoi/internal/core").
	// Fixture packages the tests load carry the virtual path the test
	// assigned, so package-scoped analyzers treat them as the package
	// they impersonate.
	ImportPath string
	// ModuleRel is ImportPath relative to the module path
	// ("internal/core"), or "" for the module root package.
	ModuleRel string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Loader parses and type-checks the packages of one module that a set
// of go-tool patterns matches. The go tool finds the packages and
// compiles export data for their dependencies; the loader parses the
// matched packages with go/parser and checks them with go/types. Test
// files (_test.go) and testdata directories are excluded, as they are
// from `go build`: the simulator's determinism invariants concern
// shipped code, and test files are free to use wall-clock timeouts.
type Loader struct {
	Root    string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod

	dir     string
	fset    *token.FileSet
	listed  []listedPackage           // the module's packages, dependencies first
	exports map[string]string         // import path -> export data file
	gc      types.Importer            // reads export data through lookup
	checked map[string]*types.Package // import path -> package checked from source
}

// listedPackage is the part of one `go list -json` record the loader
// reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Module     *struct {
		Path, Dir string
		Main      bool
	}
}

// NewLoader lists patterns, and every package they depend on, with
// `go list` run in dir. The patterns mean what they mean to `go build`
// run there; no pattern is the package in dir.
func NewLoader(dir string, patterns ...string) (*Loader, error) {
	l := &Loader{
		dir:     dir,
		fset:    token.NewFileSet(),
		exports: make(map[string]string),
		checked: make(map[string]*types.Package),
	}
	l.gc = importer.ForCompiler(l.fset, "gc", l.lookup)
	pkgs, err := l.list(patterns)
	if err != nil {
		return nil, err
	}
	// A dependency inside the module is checked from source too, so
	// that every package sees one *types.Package per module path.
	for _, p := range pkgs {
		if p.Module == nil || !p.Module.Main || len(p.GoFiles) == 0 {
			continue
		}
		l.listed = append(l.listed, p)
		if !p.DepOnly {
			l.Root, l.ModPath = p.Module.Dir, p.Module.Path
		}
	}
	if l.Root == "" {
		return nil, fmt.Errorf("lint: no package of the main module matches %v", patterns)
	}
	return l, nil
}

// list runs `go list -deps -export -json` on patterns and records the
// export data file of every package it names.
func (l *Loader) list(patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,GoFiles,DepOnly,Module"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		// One line, however many go list printed.
		return nil, fmt.Errorf("lint: go list: %v: %s", err, strings.ReplaceAll(strings.TrimSpace(stderr.String()), "\n", "; "))
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("lint: go list output: %w", err)
		}
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// lookup opens the export data of path for the gc importer. A package
// no listed package imports (a fixture's, say) is listed on demand.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	if _, ok := l.exports[path]; !ok {
		if _, err := l.list([]string{path}); err != nil {
			return nil, err
		}
	}
	return os.Open(l.exports[path])
}

// LoadAll parses and type-checks the matched packages, in go list's
// order: each after the packages it imports.
func (l *Loader) LoadAll() ([]*Package, error) {
	var out []*Package
	for _, lp := range l.listed {
		p, err := l.check(lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		l.checked[lp.ImportPath] = p.Types
		if !lp.DepOnly {
			out = append(out, p)
		}
	}
	return out, nil
}

// check parses and type-checks the named source files in dir as one
// package.
func (l *Loader) check(importPath, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	// go list has compiled every listed package, so only a fixture
	// can fail here.
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		ModuleRel:  strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModPath), "/"),
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// Import implements types.Importer: a package the loader checked from
// source is that package, any other comes from go list's export data.
// An in-module package read from export data would be a second
// *types.Package, and objects would differ between its importers.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	return l.gc.Import(path)
}
