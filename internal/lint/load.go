package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fsoi/internal/parallel"
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
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
}

// Loader parses and type-checks packages of a single module using only
// the standard library: go/parser for syntax and go/types with a source
// importer for semantics. Test files (_test.go) and testdata directories
// are excluded; the simulator's determinism invariants concern shipped
// code, and test files are free to use wall-clock timeouts.
type Loader struct {
	Root    string // absolute module root (directory holding go.mod)
	ModPath string // module path from go.mod

	// Jobs bounds the worker count of the parse pre-pass in LoadAll
	// (0 or 1 parses serially). Only parsing parallelizes: the
	// token.FileSet serializes its own position allocation, and
	// parser.ParseFile jobs share nothing else. Type-checking stays
	// strictly serial and in sorted import-path order — go/types
	// results must be built in a deterministic dependency order for
	// findings to be reproducible byte-for-byte.
	Jobs int

	fset     *token.FileSet
	std      types.ImporterFrom
	checked  map[string]*types.Package // import path -> type-checked package
	pkgs     map[string]*Package       // import path -> full package record
	checking map[string]bool           // import cycle detection
	parsed   map[string]*ast.File      // absolute file path -> pre-parsed syntax
}

// NewLoader locates the enclosing module of dir and returns a loader
// for it.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not support ImportFrom")
	}
	return &Loader{
		Root:     root,
		ModPath:  modPath,
		fset:     fset,
		std:      std,
		checked:  make(map[string]*types.Package),
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
		parsed:   make(map[string]*ast.File),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and reads the
// module path from its first "module" directive.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
		d = parent
	}
}

// LoadAll parses and type-checks every non-test package in the module,
// in deterministic (import path) order.
func (l *Loader) LoadAll() ([]*Package, error) {
	var rels []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoSources(path) {
			rel, err := filepath.Rel(l.Root, path)
			if err != nil {
				return err
			}
			rels = append(rels, filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)
	l.preparse(rels)
	var out []*Package
	for _, rel := range rels {
		p, err := l.loadModulePackage(rel)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// preparse parses every source file under the given module-relative
// directories on up to l.Jobs workers, caching the syntax trees for
// check. Files that fail to parse are simply not cached: check
// re-parses them serially so the error surfaces at the same point,
// with the same message, as a serial load.
func (l *Loader) preparse(rels []string) {
	if l.Jobs <= 1 {
		return
	}
	var files []string
	for _, rel := range rels {
		dir := filepath.Join(l.Root, filepath.FromSlash(rel))
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, e := range entries {
			if !e.IsDir() && isSourceName(e.Name()) {
				files = append(files, filepath.Join(dir, e.Name()))
			}
		}
	}
	parsed := parallel.Map(len(files), l.Jobs, func(i int) *ast.File {
		f, err := parser.ParseFile(l.fset, files[i], nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil
		}
		return f
	})
	for i, f := range parsed {
		if f != nil {
			l.parsed[files[i]] = f
		}
	}
}

// hasGoSources reports whether dir directly contains at least one
// non-test .go file.
func hasGoSources(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceName(e.Name()) {
			return true
		}
	}
	return false
}

func isSourceName(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// importPathFor maps a module-relative directory to its import path.
func (l *Loader) importPathFor(rel string) string {
	if rel == "" || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + rel
}

// loadModulePackage loads the package in the module-relative directory
// rel, type-checking its in-module dependencies first (lazily, through
// the importer). Results are memoized per loader.
func (l *Loader) loadModulePackage(rel string) (*Package, error) {
	path := l.importPathFor(rel)
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	p, err := l.check(filepath.Join(l.Root, filepath.FromSlash(rel)), path, rel)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.checked[path] = p.Types
	return p, nil
}

// check parses and type-checks one directory's sources.
func (l *Loader) check(dir, importPath, rel string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isSourceName(e.Name()) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		if f, ok := l.parsed[path]; ok {
			files = append(files, f)
			continue
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go sources in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, l.fset, files, info)
	if len(typeErrs) > 0 {
		msgs := make([]string, 0, len(typeErrs))
		for _, e := range typeErrs {
			msgs = append(msgs, e.Error())
		}
		return nil, fmt.Errorf("lint: type errors in %s:\n  %s", importPath, strings.Join(msgs, "\n  "))
	}
	return &Package{
		ImportPath: importPath,
		ModuleRel:  rel,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom resolves in-module imports against the loader's own
// type-checked results (loading them on demand) and everything else
// through the standard library's source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		p, err := l.loadModulePackage(rel)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}
