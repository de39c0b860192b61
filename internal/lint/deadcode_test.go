package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
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
// name of a type, const or var spec; or one field of a struct type, or
// one method of an interface type, written in such a declaration.
type decl struct {
	obj  types.Object
	name string // import path qualified: "fsoi/internal/core.(*Network).Tick", "fsoi/internal/cpu.Stats.Ops"
	file string // relative to the module root
	line int
}

// deadDecls reports every package-level declaration in pkgs that no
// other declaration names through Info.Uses or Info.Selections, and
// every struct field that nothing reads. A declaration's use of itself
// (recursion, a method calling itself) does not count. Exempt by
// construction are main and init, String and Error (fmt calls them),
// the methods that convertedMethods finds reached through an
// interface, and every declaration of a non-main package that no
// package in pkgs imports (test support such as
// internal/noc/noctest). pkgs must exclude _test.go files, so a use
// only tests make is no use.
//
// A method a declared interface lists is a candidate too, used only
// where a selection names it (a call or method value through the
// interface): an implementation satisfying it is no use of it.
//
// A field is read by any selector of it that is not the left side of
// an assignment or the operand of ++ or --; a composite-literal key
// writes it. A field whose name is a selector in testSelectors (the
// names _test.go files select) is not reported, nor one with a struct
// tag, which an encoder reads, nor an embedded field, which lends its
// methods to the outer type without a selector. The result is sorted
// by position.
func deadDecls(pkgs []*Package, root string, testSelectors map[string]bool) []decl {
	imported := make(map[string]bool)
	for _, p := range pkgs {
		for _, imp := range p.Types.Imports() {
			imported[imp.Path()] = true
		}
	}

	var decls []decl
	used := make(map[types.Object]bool)
	read := make(map[types.Object]bool)
	for _, p := range pkgs {
		checked := p.Types.Name() == "main" || imported[p.ImportPath]
		add := func(obj types.Object, id *ast.Ident, name string) {
			pos := p.Fset.Position(id.Pos())
			decls = append(decls, decl{obj: obj, name: name, file: relPath(pos.Filename, root), line: pos.Line})
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				for _, unit := range declUnits(d) {
					self := make(map[types.Object]bool)
					for _, id := range unit.names {
						if obj := p.Info.Defs[id]; obj != nil && id.Name != "_" {
							self[obj] = true
							if checked {
								add(obj, id, qualifiedName(obj))
							}
						}
					}
					written := make(map[ast.Expr]bool)
					ast.Inspect(unit.node, func(n ast.Node) bool {
						var obj types.Object
						switch n := n.(type) {
						case *ast.Ident:
							obj = p.Info.Uses[n]
						case *ast.SelectorExpr:
							if sel, ok := p.Info.Selections[n]; ok {
								obj = sel.Obj()
								if sel.Kind() == types.FieldVal && !written[n] {
									read[origin(obj)] = true
								}
							}
						case *ast.AssignStmt:
							for _, lhs := range n.Lhs {
								written[ast.Unparen(lhs)] = true
							}
						case *ast.IncDecStmt:
							written[ast.Unparen(n.X)] = true
						case *ast.InterfaceType:
							// A method of a declared interface is used
							// only where a selection names it.
							if !checked || n != unit.typ() {
								break
							}
							for _, field := range n.Methods.List {
								for _, id := range field.Names {
									add(p.Info.Defs[id], id, qualifiedName(p.Info.Defs[unit.names[0]])+"."+id.Name)
								}
							}
						case *ast.StructType:
							if !checked {
								break
							}
							for _, field := range n.Fields.List {
								if field.Tag != nil {
									continue
								}
								for _, id := range field.Names {
									if id.Name != "_" {
										add(p.Info.Defs[id], id, qualifiedName(p.Info.Defs[unit.names[0]])+"."+id.Name)
									}
								}
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

	exempt := convertedMethods(pkgs)
	var out []decl
	for _, d := range decls {
		if v, ok := d.obj.(*types.Var); ok && v.IsField() {
			if read[v] || testSelectors[v.Name()] {
				continue
			}
		} else if used[d.obj] || exempt[d.obj] || exemptByName(d.obj) {
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

// typ returns the type a type spec declares, or nil for any other unit.
func (u declUnit) typ() ast.Expr {
	if ts, ok := u.node.(*ast.TypeSpec); ok {
		return ts.Type
	}
	return nil
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

// origin maps a use of an instantiated generic func, method or field
// back to the declared object.
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

// convertedMethods returns the methods that a call through an
// interface can reach. A value of a concrete type becomes an interface
// by assignment, call argument, return, composite-literal element,
// conversion or send, as in `var _ I = (*T)(nil)`; the type's methods
// that the interface declares are then reached. A type assertion or
// type switch to an interface reaches the methods it declares on every
// type that has become some interface, as
// `x.(interface{ SetObserver(*obs.Recorder) })` does.
func convertedMethods(pkgs []*Package) map[types.Object]bool {
	type conversion struct {
		from types.Type
		to   *types.Interface
	}
	convs := make(map[conversion]bool)
	var asserted []*types.Interface
	// note records a value of type from that becomes type to.
	note := func(to, from types.Type) {
		if to == nil || from == nil || types.IsInterface(from) {
			return
		}
		if _, basic := from.(*types.Basic); basic {
			return
		}
		if iface, ok := to.Underlying().(*types.Interface); ok {
			convs[conversion{from, iface}] = true
		}
	}
	// assert records an assertion to type t.
	assert := func(t types.Type) {
		if t == nil {
			return
		}
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			asserted = append(asserted, iface)
		}
	}
	for _, p := range pkgs {
		info := p.Info
		// noteAll records exprs, or the results of the one multi-value
		// call among them, becoming the types at(i).
		noteAll := func(exprs []ast.Expr, at func(i int) types.Type) {
			if len(exprs) == 1 {
				if tuple, ok := info.TypeOf(exprs[0]).(*types.Tuple); ok {
					for i := 0; i < tuple.Len(); i++ {
						note(at(i), tuple.At(i).Type())
					}
					return
				}
			}
			for i, e := range exprs {
				note(at(i), info.TypeOf(e))
			}
		}
		tupleAt := func(t *types.Tuple) func(int) types.Type {
			return func(i int) types.Type {
				if i < t.Len() {
					return t.At(i).Type()
				}
				return nil
			}
		}
		// walk visits root, whose return statements return results of
		// sig; each nested function is walked with its own.
		var walk func(root ast.Node, sig *types.Signature)
		walk = func(root ast.Node, sig *types.Signature) {
			ast.Inspect(root, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n != root {
						walk(n, info.Defs[n.Name].Type().(*types.Signature))
						return false
					}
				case *ast.FuncLit:
					if n != root {
						walk(n, info.TypeOf(n).(*types.Signature))
						return false
					}
				case *ast.ReturnStmt:
					noteAll(n.Results, tupleAt(sig.Results()))
				case *ast.AssignStmt:
					noteAll(n.Rhs, func(i int) types.Type {
						if i < len(n.Lhs) {
							return info.TypeOf(n.Lhs[i])
						}
						return nil
					})
				case *ast.ValueSpec:
					if n.Type != nil {
						to := info.TypeOf(n.Type)
						noteAll(n.Values, func(int) types.Type { return to })
					}
				case *ast.CallExpr:
					if tv := info.Types[n.Fun]; tv.IsType() {
						noteAll(n.Args, func(int) types.Type { return tv.Type })
					} else if sig, ok := info.TypeOf(n.Fun).(*types.Signature); ok {
						params := sig.Params()
						noteAll(n.Args, func(i int) types.Type {
							if last := params.Len() - 1; sig.Variadic() && i >= last {
								if s, ok := params.At(last).Type().Underlying().(*types.Slice); ok && !n.Ellipsis.IsValid() {
									return s.Elem()
								}
								return nil
							}
							return tupleAt(params)(i)
						})
					}
				case *ast.CompositeLit:
					t := info.TypeOf(n)
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem()
					}
					var key, elem types.Type
					var st *types.Struct
					switch u := t.Underlying().(type) {
					case *types.Struct:
						st = u
					case *types.Slice:
						elem = u.Elem()
					case *types.Array:
						elem = u.Elem()
					case *types.Map:
						key, elem = u.Key(), u.Elem()
					}
					for i, e := range n.Elts {
						to := elem
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if st != nil {
								to = info.TypeOf(kv.Key)
							} else {
								note(key, info.TypeOf(kv.Key))
							}
							e = kv.Value
						} else if st != nil {
							to = st.Field(i).Type()
						}
						note(to, info.TypeOf(e))
					}
				case *ast.SendStmt:
					if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
						note(ch.Elem(), info.TypeOf(n.Value))
					}
				case *ast.TypeAssertExpr:
					if n.Type != nil {
						assert(info.TypeOf(n.Type))
					}
				case *ast.TypeSwitchStmt:
					for _, c := range n.Body.List {
						for _, e := range c.(*ast.CaseClause).List {
							assert(info.TypeOf(e))
						}
					}
				}
				return true
			})
		}
		for _, f := range p.Files {
			walk(f, nil)
		}
	}

	out := make(map[types.Object]bool)
	reach := func(t types.Type, iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			m := iface.Method(i)
			obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				out[origin(fn)] = true
			}
		}
	}
	for c := range convs {
		reach(c.from, c.to)
		for _, iface := range asserted {
			if types.Implements(c.from, iface) {
				reach(c.from, iface)
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

// selectorNames returns the name of every selector in the _test.go
// files under dir, testdata and dot directories left out.
func selectorNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != dir && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				names[sel.Sel.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
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
	for _, d := range deadDecls(pkgs, loader.Root, selectorNames(t, loader.Root)) {
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
	for _, d := range deadDecls([]*Package{p}, loader.Root, selectorNames(t, dir)) {
		findings = append(findings, Finding{Analyzer: "deadcode", File: d.file, Line: d.line, Message: d.name})
	}
	matchWants(t, dir, findings)
}
