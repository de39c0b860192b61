package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepUnused names the package-level declarations that may stay
// without a non-test use, each with the reason it is worth keeping.
// At most five: the rule is "code with no non-test caller is deleted",
// and this list is for the few that a documented test or a paper
// figure still needs. An entry whose declaration gains a use, or no
// longer exists, fails the test.
var keepUnused = map[string]string{
	"fsoi/internal/analytic.NodeCollisionProbability":       "Fig 3's node-level expression, checked against the Monte Carlo",
	"fsoi/internal/analytic.TwoReceiverRetransmitCollision": "footnote 4's two-receiver retransmission collision figure",
	"fsoi/internal/core.(*Network).SetBitErrorRate":         "the §4.3.1 BER-relaxation tests in core and fault",
	"fsoi/internal/core.(*Network).NextSweep":               "system's sleeper-liveness test",
	"fsoi/internal/sim.Wake.Due":                            "system's sleeper-liveness test",
}

const maxKeepUnused = 5

// decl is one package-level declaration: a func, a method, or one
// name of a type, const or var spec.
type decl struct {
	obj  types.Object
	name string // import path qualified: "fsoi/internal/core.(*Network).Tick"
	file string // relative to the module root
	line int
}

// deadDecls reports every package-level declaration in pkgs that no
// other declaration names through Info.Uses or Info.Selections. A
// declaration's use of itself (recursion, a method calling itself)
// does not count. Exempt by construction are main and init, String
// and Error (fmt calls them), methods that implement an interface
// appearing anywhere in the packages' type information, and every
// declaration of a non-main package that no package in pkgs imports
// (test support such as internal/noc/noctest). pkgs must exclude
// _test.go files, so a use only tests make is no use. The result is
// sorted by position.
func deadDecls(pkgs []*Package, root string) []decl {
	imported := make(map[string]bool)
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			imported[imp.Path()] = true
		}
	}

	var decls []decl
	used := make(map[types.Object]bool)
	for _, p := range pkgs {
		checked := p.Types.Name() == "main" || imported[p.ImportPath]
		for _, f := range p.Files {
			for _, d := range f.Decls {
				for _, unit := range declUnits(d) {
					self := make(map[types.Object]bool)
					for _, id := range unit.names {
						if obj := p.Info.Defs[id]; obj != nil && id.Name != "_" {
							self[obj] = true
							if checked {
								pos := p.Fset.Position(id.Pos())
								decls = append(decls, decl{obj: obj, name: qualifiedName(obj), file: relPath(pos.Filename, root), line: pos.Line})
							}
						}
					}
					ast.Inspect(unit.node, func(n ast.Node) bool {
						var obj types.Object
						switch n := n.(type) {
						case *ast.Ident:
							obj = p.Info.Uses[n]
						case *ast.SelectorExpr:
							if sel, ok := p.Info.Selections[n]; ok {
								obj = sel.Obj()
							}
						}
						if obj = origin(obj); obj != nil && !self[obj] {
							used[obj] = true
						}
						return true
					})
				}
			}
		}
	}

	exempt := interfaceMethods(pkgs)
	var out []decl
	for _, d := range decls {
		if used[d.obj] || exempt[d.obj] || exemptByName(d.obj) {
			continue
		}
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}

// declUnit is the syntax of one declaration and the names it defines.
type declUnit struct {
	node  ast.Node
	names []*ast.Ident
}

// declUnits splits a top-level declaration into its units: a func
// declaration is one, and each spec of a type, const or var block is
// one of its own, so a const in a block that uses its neighbour is a
// use.
func declUnits(d ast.Decl) []declUnit {
	switch d := d.(type) {
	case *ast.FuncDecl:
		return []declUnit{{node: d, names: []*ast.Ident{d.Name}}}
	case *ast.GenDecl:
		var units []declUnit
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				units = append(units, declUnit{node: s, names: []*ast.Ident{s.Name}})
			case *ast.ValueSpec:
				units = append(units, declUnit{node: s, names: s.Names})
			}
		}
		return units
	}
	return nil
}

// origin maps a use of an instantiated generic func or method back to
// the declared object.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exemptByName reports main and init funcs and String and Error
// methods, which the runtime or fmt call without naming them.
func exemptByName(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return fn.Name() == "String" || fn.Name() == "Error"
	}
	return fn.Name() == "init" || fn.Name() == "main" && fn.Pkg().Name() == "main"
}

// interfaceMethods returns the methods of the packages' named types
// that implement an interface named anywhere in their type
// information: the type of any expression or of any object defined or
// used, including anonymous interfaces in a type assertion and the
// parameter types of library funcs such as io.Copy.
func interfaceMethods(pkgs []*Package) map[types.Object]bool {
	seen := make(map[types.Type]bool)
	var ifaces []*types.Interface
	var visit func(t types.Type)
	visit = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if args := t.TypeArgs(); args != nil {
				for i := 0; i < args.Len(); i++ {
					visit(args.At(i))
				}
			}
			visit(t.Underlying())
		case *types.Interface:
			if t.NumMethods() > 0 {
				ifaces = append(ifaces, t)
			}
		case *types.Pointer:
			visit(t.Elem())
		case *types.Slice:
			visit(t.Elem())
		case *types.Array:
			visit(t.Elem())
		case *types.Chan:
			visit(t.Elem())
		case *types.Map:
			visit(t.Key())
			visit(t.Elem())
		case *types.Signature:
			visit(t.Params())
			visit(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				visit(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				visit(t.Field(i).Type())
			}
		}
	}
	var named []*types.Named
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			visit(tv.Type)
		}
		for _, obj := range p.Info.Defs {
			if obj == nil {
				continue
			}
			visit(obj.Type())
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && obj.Parent() == p.Types.Scope() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
		}
		for _, obj := range p.Info.Uses {
			visit(obj.Type())
		}
	}

	out := make(map[types.Object]bool)
	for _, n := range named {
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			for _, iface := range ifaces {
				if !types.Implements(t, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					obj, _, _ := types.LookupFieldOrMethod(t, true, m.Pkg(), m.Name())
					if obj != nil {
						out[origin(obj)] = true
					}
				}
			}
		}
	}
	return out
}

// qualifiedName renders obj as "importpath.Name" or, for a method,
// "importpath.(*Recv).Name" / "importpath.Recv.Name".
func qualifiedName(obj types.Object) string {
	prefix := obj.Pkg().Path() + "."
	fn, ok := obj.(*types.Func)
	if !ok {
		return prefix + obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return prefix + obj.Name()
	}
	t := recv.Type()
	ptr := false
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), true
	}
	name := types.TypeString(t, func(*types.Package) string { return "" })
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i]
	}
	if ptr {
		return prefix + "(*" + name + ")." + obj.Name()
	}
	return prefix + name + "." + obj.Name()
}

func relPath(file, root string) string {
	if rel, err := filepath.Rel(root, file); err == nil {
		return filepath.ToSlash(rel)
	}
	return file
}

// TestEveryDeclarationHasANonTestUse holds the module to "code with no
// non-test caller is deleted": every package-level declaration of
// cmd/, bench/, examples/ and internal/ must be named by some other
// non-test declaration, or be one of the computed exemptions, or sit
// on the short keep list above.
func TestEveryDeclarationHasANonTestUse(t *testing.T) {
	if len(keepUnused) > maxKeepUnused {
		t.Fatalf("keep list has %d entries, at most %d allowed", len(keepUnused), maxKeepUnused)
	}
	loader, pkgs := loadModule(t)

	kept := make(map[string]bool)
	for _, d := range deadDecls(pkgs, loader.Root) {
		if reason, ok := keepUnused[d.name]; ok {
			if reason == "" {
				t.Errorf("keep list entry %s has no reason", d.name)
			}
			kept[d.name] = true
			continue
		}
		t.Errorf("%s:%d: %s has no non-test use: delete it, or move it into a _test.go file if tests need it", d.file, d.line, d.name)
	}
	names := make([]string, 0, len(keepUnused))
	for name := range keepUnused {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !kept[name] {
			t.Errorf("keep list entry %s is stale: it has a non-test use or no longer exists", name)
		}
	}
}

// TestDeadCodeFixture runs the rule over testdata/src/deadcode, whose
// "// want" comments mark the declarations it must report.
func TestDeadCodeFixture(t *testing.T) {
	loader, err := NewLoader(".", "fsoi/...")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join("testdata", "src", "deadcode")
	p, err := loader.LoadDir(dir, "fsoi/cmd/deadcode")
	if err != nil {
		t.Fatal(err)
	}
	var findings []Finding
	for _, d := range deadDecls([]*Package{p}, loader.Root) {
		findings = append(findings, Finding{Analyzer: "deadcode", File: d.file, Line: d.line, Message: d.name})
	}
	matchWants(t, dir, findings)
}
