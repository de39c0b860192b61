package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkFloatEq is the floateq analyzer. It flags == and != between
// floating-point expressions in model code (everything under
// internal/). Exact float equality is only
// meaningful for values that were assigned, never computed; comparing
// computed values depends on evaluation order and optimization level,
// which is exactly the class of nondeterminism this repository bans.
// Legitimate exact comparisons (sentinels, zero-guards on values that
// are set rather than accumulated) carry a //lint:allow floateq with
// the justification; x != x is a finding too (math.IsNaN says it).
func checkFloatEq(p *Package) []Finding {
	if !strings.HasPrefix(p.ModuleRel, "internal/") && p.ModuleRel != "internal" {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			e, ok := n.(*ast.BinaryExpr)
			if !ok || (e.Op != token.EQL && e.Op != token.NEQ) {
				return true
			}
			xt, yt := p.Info.Types[e.X], p.Info.Types[e.Y]
			if !isFloat(xt.Type) && !isFloat(yt.Type) {
				return true
			}
			// Both sides constant: the comparison folds at compile time
			// and cannot vary between runs.
			if xt.Value != nil && yt.Value != nil {
				return true
			}
			out = append(out, finding(p, "floateq", e,
				"floating-point %s comparison: computed floats differ by rounding, not identity; compare with a tolerance, restructure, or justify with //lint:allow floateq", e.Op))
			return true
		})
	}
	return out
}

// isFloat reports whether t's underlying type is a float or complex.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
