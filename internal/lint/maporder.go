package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkMapOrder is the maporder analyzer. It flags `range` over a map
// whose loop body leaks the (deliberately randomized) iteration order
// into observable state: a write to any variable declared outside the
// loop, a return of the key or value, a channel send, or an RNG draw.
// Two order-independent write shapes are allowed without annotation,
// the only two the module uses:
//
//   - assignments indexed by the loop key (each key is visited exactly
//     once, so element-wise map merges are safe), and delete(m, k);
//   - appends into a slice that the same function sorts after the
//     loop — the canonical iterate-over-sorted-keys idiom.
//
// Every other outside write, an order-free one such as an integer sum
// or a max included, is a finding: iterate over sorted keys instead.
// The analyzer is intraprocedural: a body that mutates outside state
// through an opaque call is not seen. It exists to catch the common
// shapes, not to replace review.
func checkMapOrder(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			rs, ok := n.(*ast.RangeStmt)
			if !ok || !isMapRangeStmt(p, rs) {
				return true
			}
			out = append(out, checkMapRange(p, rs, enclosingFuncBody(stack))...)
			return true
		})
	}
	return out
}

// isMapRangeStmt reports whether rs ranges over a map value.
func isMapRangeStmt(p *Package, rs *ast.RangeStmt) bool {
	tv, ok := p.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// enclosingFuncBody returns the body of the innermost function
// containing the top of the stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// checkMapRange analyzes one map-range statement.
func checkMapRange(p *Package, rs *ast.RangeStmt, fnBody *ast.BlockStmt) []Finding {
	var out []Finding
	keyObj := identObj(p, rs.Key)
	valObj := identObj(p, rs.Value)

	inLoop := func(pos token.Pos) bool { return rs.Pos() <= pos && pos < rs.End() }
	outside := func(obj types.Object) bool {
		return obj != nil && !inLoop(obj.Pos())
	}

	// Appends into outside slices are hazards unless the function sorts
	// the slice after the loop; collect first, decide after the walk.
	var appends []pendingAppend

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := ast.Expr(nil)
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				out = append(out, checkWrite(p, n, lhs, rhs, outside, keyObj, &appends)...)
			}
		case *ast.IncDecStmt:
			if outside(rootObj(p, n.X)) {
				out = append(out, finding(p, "maporder", n, updateMsg, n.Tok, exprString(n.X)))
			}
		case *ast.SendStmt:
			out = append(out, finding(p, "maporder", n,
				"channel send inside map iteration publishes elements in map order; iterate over sorted keys"))
		case *ast.ReturnStmt:
			if mentions(p, n, keyObj) || mentions(p, n, valObj) {
				out = append(out, finding(p, "maporder", n,
					"return inside map iteration selects an order-dependent element; iterate over sorted keys and pick deterministically"))
			}
		case *ast.CallExpr:
			if isRNGCall(p, n) {
				out = append(out, finding(p, "maporder", n,
					"random draw inside map iteration: the stream advances in map order; iterate over sorted keys"))
			}
		}
		return true
	})

	for _, a := range appends {
		if sortedAfter(p, fnBody, rs, a.obj) {
			continue
		}
		out = append(out, finding(p, "maporder", a.node,
			"append to %s inside map iteration: element order follows map order; sort the slice afterwards or iterate over sorted keys", a.name))
	}
	return out
}

// pendingAppend is an append into an outside slice awaiting the
// sorted-after check.
type pendingAppend struct {
	obj  types.Object
	node ast.Node
	name string
}

// checkWrite classifies one assignment target inside a map-range body.
func checkWrite(p *Package, stmt *ast.AssignStmt, lhs, rhs ast.Expr,
	outside func(types.Object) bool, keyObj types.Object, appends *[]pendingAppend) []Finding {

	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return nil
	}
	obj := rootObj(p, lhs)
	if !outside(obj) {
		return nil
	}

	// x = append(x, ...) is deferred to the sorted-after check.
	if call, ok := rhs.(*ast.CallExpr); ok && stmt.Tok == token.ASSIGN && isBuiltin(p, call.Fun, "append") {
		*appends = append(*appends, pendingAppend{obj, stmt, exprString(lhs)})
		return nil
	}

	// Writes indexed by the loop key touch each key once: order-free.
	if idx, ok := lhs.(*ast.IndexExpr); ok {
		if id, ok := idx.Index.(*ast.Ident); ok && keyObj != nil && p.Info.Uses[id] == keyObj {
			return nil
		}
	}

	switch {
	case stmt.Tok == token.ASSIGN:
		return []Finding{finding(p, "maporder", stmt,
			"assignment to %s inside map iteration: the surviving value depends on map order; iterate over sorted keys", exprString(lhs))}
	case isFloatExpr(p, lhs):
		return []Finding{finding(p, "maporder", stmt,
			"floating-point accumulation into %s inside map iteration: summation order changes the result bits; iterate over sorted keys", exprString(lhs))}
	case isStringExpr(p, lhs):
		return []Finding{finding(p, "maporder", stmt,
			"string concatenation into %s inside map iteration emits elements in map order; iterate over sorted keys", exprString(lhs))}
	default:
		return []Finding{finding(p, "maporder", stmt, updateMsg, stmt.Tok, exprString(lhs))}
	}
}

// updateMsg reports an in-place update (x op= v, x++) inside a map
// range: the order-free ones (an integer sum) are not told apart.
const updateMsg = "update (%s) of %s inside map iteration: only key-indexed assignments and append-then-sort are order-free here; iterate over sorted keys"

// sortedAfter reports whether fnBody sorts the slice held by obj at a
// position after the range statement.
func sortedAfter(p *Package, fnBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	if fnBody == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := p.Info.Uses[sel.Sel]
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		sorter := false
		switch fn.Pkg().Path() {
		case "sort":
			switch fn.Name() {
			case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
				sorter = true
			}
		case "slices":
			switch fn.Name() {
			case "Sort", "SortFunc", "SortStableFunc":
				sorter = true
			}
		}
		if sorter && rootObj(p, call.Args[0]) == obj {
			found = true
		}
		return true
	})
	return found
}

// isRNGCall reports whether call invokes a method on internal/sim's RNG
// or Zipf types.
func isRNGCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg := named.Obj().Pkg().Path()
	name := named.Obj().Name()
	return strings.HasSuffix(pkg, "internal/sim") && (name == "RNG" || name == "Zipf")
}

// identObj resolves a range clause ident (key or value) to its object.
func identObj(p *Package, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := p.Info.Defs[id]; o != nil {
		return o
	}
	return p.Info.Uses[id]
}

// rootObj unwraps selectors, indexes, derefs, and parens down to the
// base identifier's object.
func rootObj(p *Package, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if o := p.Info.Uses[v]; o != nil {
				return o
			}
			return p.Info.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.TypeAssertExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// isBuiltin reports whether fun denotes the named Go builtin.
func isBuiltin(p *Package, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := p.Info.Uses[id].(*types.Builtin)
	return isB
}

// mentions reports whether node contains an identifier bound to obj.
func mentions(p *Package, node ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// isFloatExpr reports whether e has floating-point (or complex) type.
func isFloatExpr(p *Package, e ast.Expr) bool {
	return isFloat(p.Info.Types[e].Type)
}

// isStringExpr reports whether e has string type.
func isStringExpr(p *Package, e ast.Expr) bool {
	tv := p.Info.Types[e]
	if tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// exprString renders a short source form of e for messages.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}
