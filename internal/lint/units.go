package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// checkUnits is the units analyzer. It enforces the physical-unit
// discipline of the photonics stack. internal/optics defines DB, DBm,
// Watts, Joules, and Seconds as distinct types, and internal/sim
// defines Cycle; Go's type checker already rejects arithmetic across
// *different* underlying-float64 definitions, so what is left for
// analysis is exactly the holes a conversion or a same-type operation
// can punch through that wall:
//
//   - Unit(expr) where expr already carries a different unit relabels a
//     quantity without physics (DBm(loss) turns a loss into a level);
//   - float64(expr) where expr carries a unit strips it, re-opening
//     unchecked mixing downstream — boundaries that genuinely need raw
//     floats (a solver kernel, a responsivity product) carry a
//     //lint:allow with the justification;
//   - float64(cycles) hides a time quantity: cycles convert to wall
//     time only through optics.CycleSeconds, which demands the clock;
//   - DBm + DBm adds two absolute power levels — never physical; a
//     budget adds a level and a loss (DBm.Plus(DB));
//   - Unit * Unit squares the dimension, and DB / DB divides a
//     log-scale quantity; both survive the type checker because the
//     operands share a type.
//
// The analyzer runs only over the physics layer (internal/optics,
// internal/power, internal/thermal): consumers above it (experiments,
// rendering) strip units at the presentation boundary by design.
// Files named units.go are exempt — the conversion methods themselves
// must strip and tag to exist at all.
func checkUnits(p *Package) []Finding {
	if !inUnitsScope(p.ModuleRel) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		if filepath.Base(p.Fset.Position(f.Pos()).Filename) == "units.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				out = append(out, checkConversion(p, v)...)
			case *ast.BinaryExpr:
				out = append(out, checkArithmetic(p, v)...)
			}
			return true
		})
	}
	return out
}

// unitsScope lists the module-relative roots where the unit discipline
// is enforced.
var unitsScope = []string{"internal/optics", "internal/power", "internal/thermal"}

// inUnitsScope reports whether rel falls under the physics layer.
func inUnitsScope(rel string) bool {
	for _, root := range unitsScope {
		if rel == root || isUnder(rel, root) {
			return true
		}
	}
	return false
}

// unitName classifies t: one of the optics unit types ("DB", "DBm",
// "Watts", "Joules", "Seconds"), the engine's "sim.Cycle", or "" for
// everything else. Matching is by type name plus defining-package
// suffix so testdata fixtures can impersonate module packages.
func unitName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	switch obj.Name() {
	case "DB", "DBm", "Watts", "Joules", "Seconds":
		if pkgPathHasSuffix(obj.Pkg(), "internal/optics") {
			return obj.Name()
		}
	case "Cycle":
		if pkgPathHasSuffix(obj.Pkg(), "internal/sim") {
			return "sim.Cycle"
		}
	}
	return ""
}

// checkConversion flags unit-relabeling and unit-stripping conversions.
func checkConversion(p *Package, call *ast.CallExpr) []Finding {
	tv, ok := p.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return nil
	}
	src := unitName(p.Info.Types[call.Args[0]].Type)
	if src == "" {
		return nil
	}
	dst := unitName(tv.Type)
	switch {
	case dst == src:
		return nil
	case dst != "":
		return []Finding{finding(p, "units", call,
			"%s relabels a %s as a %s without physics; go through the conversion methods in internal/optics/units.go",
			exprString(call), src, dst)}
	case src == "sim.Cycle":
		return []Finding{finding(p, "units", call,
			"%s discards the cycle unit; cycles become wall time only through optics.CycleSeconds, which demands the clock rate",
			exprString(call))}
	default:
		return []Finding{finding(p, "units", call,
			"%s strips the %s unit, re-opening unchecked mixing; keep the quantity typed or justify the raw-float boundary",
			exprString(call), src)}
	}
}

// checkArithmetic flags same-type operations that fake physics: the
// type checker cannot help when both operands share the unit.
func checkArithmetic(p *Package, be *ast.BinaryExpr) []Finding {
	xt, yt := p.Info.Types[be.X], p.Info.Types[be.Y]
	if xt.Value != nil || yt.Value != nil {
		return nil // a constant operand is a tag or a scale, not a quantity
	}
	x, y := unitName(xt.Type), unitName(yt.Type)
	if x == "" || x != y {
		return nil
	}
	switch be.Op {
	case token.ADD, token.SUB:
		if x == "DBm" {
			return []Finding{finding(p, "units", be,
				"%s combines two absolute power levels; a budget adds a level and a loss (DBm.Plus(DB)), and a level difference is a DB, not a DBm",
				exprString(be))}
		}
	case token.MUL:
		return []Finding{finding(p, "units", be,
			"%s squares the %s unit; scale by a dimensionless factor (Scale) instead", exprString(be), x)}
	case token.QUO:
		if x == "DB" || x == "DBm" {
			return []Finding{finding(p, "units", be,
				"%s divides log-scale quantities; convert to linear (Ratio, MilliWatts) before forming ratios", exprString(be))}
		}
	}
	return nil
}

// pkgPathHasSuffix reports whether pkg's import path is suffix or ends
// in "/"+suffix. Suffix matching (rather than equality against
// "fsoi/...") lets testdata fixtures impersonate module packages.
func pkgPathHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
