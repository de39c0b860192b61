package lint

import "go/ast"

// bannedCalls maps package path -> function name -> the remedy text.
var bannedCalls = map[string]map[string]string{
	"time": {
		"Now":       "derive timing from sim.Engine cycles",
		"Since":     "derive durations from sim.Cycle arithmetic",
		"Until":     "derive durations from sim.Cycle arithmetic",
		"Sleep":     "schedule a callback with Engine.After instead of blocking",
		"After":     "schedule a callback with Engine.After instead of a timer channel",
		"Tick":      "register a sim.TickFunc instead of a ticker",
		"NewTimer":  "schedule a callback with Engine.After instead of a timer",
		"NewTicker": "register a sim.TickFunc instead of a ticker",
		"AfterFunc": "schedule a callback with Engine.After",
	},
	"os": {
		"Getenv":    "thread configuration through the package's Config struct",
		"LookupEnv": "thread configuration through the package's Config struct",
		"Environ":   "thread configuration through the package's Config struct",
		"ExpandEnv": "thread configuration through the package's Config struct",
	},
}

// checkDetSource is the detsource analyzer. It forbids
// nondeterministic inputs inside simulation packages: wall-clock time,
// environment lookups, and host-scheduler constructs (goroutines,
// select). math/rand is rngstream's, in every package. Simulated state
// must be a pure function of the configuration and its seed; any of
// these leaks host state into the run and silently breaks the
// bit-identical-replay guarantee.
//
// It additionally confines host concurrency: every module package
// outside concurrencyAllowlist — cmd/ and examples/ binaries included
// — is barred from goroutines, select, and importing sync or
// sync/atomic. Experiment fan-out must go through
// fsoi/internal/parallel, whose index-ordered merge keeps parallel
// output byte-identical to serial; ad-hoc concurrency anywhere else
// would reopen the scheduler-ordering hole that package exists to
// close. The binaries keep only the wall-clock exemption (time.Now
// for benchmark timing), because the sim-package call bans below
// apply solely to simulation packages.
func checkDetSource(p *Package) []Finding {
	sim := isSimPackage(p.ModuleRel)
	conc := bansConcurrency(p.ModuleRel)
	if !sim && !conc {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		if conc {
			for _, imp := range f.Imports {
				if path := importPathOf(imp); path == "sync" || path == "sync/atomic" {
					out = append(out, finding(p, "detsource", imp,
						"import of %s in %s: host concurrency is confined to fsoi/internal/parallel; fan work out through parallel.Map, which merges by submission index", path, p.ModuleRel))
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !conc {
					return true
				}
				if sim {
					out = append(out, finding(p, "detsource", n,
						"goroutine launched in simulation package %s: the simulator is single-threaded; host scheduling is nondeterministic", p.ModuleRel))
				} else {
					out = append(out, finding(p, "detsource", n,
						"goroutine launched in %s: host concurrency is confined to fsoi/internal/parallel; fan work out through parallel.Map, which merges by submission index", p.ModuleRel))
				}
			case *ast.SelectStmt:
				if !conc {
					return true
				}
				if sim {
					out = append(out, finding(p, "detsource", n,
						"select statement in simulation package %s: channel readiness depends on the host scheduler; drive everything from the event queue", p.ModuleRel))
				} else {
					out = append(out, finding(p, "detsource", n,
						"select statement in %s: channel readiness depends on the host scheduler; route concurrency through fsoi/internal/parallel", p.ModuleRel))
				}
			case *ast.SelectorExpr:
				if !sim {
					return true
				}
				obj := p.Info.Uses[n.Sel]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				pkgPath := obj.Pkg().Path()
				if remedy, ok := bannedCalls[pkgPath][obj.Name()]; ok {
					out = append(out, finding(p, "detsource", n,
						"use of %s.%s in simulation package %s: %s", pkgPath, obj.Name(), p.ModuleRel, remedy))
				}
			}
			return true
		})
	}
	return out
}

// rngPackages are the generator packages the analyzer bans.
var rngPackages = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// checkRNGStream is the rngstream analyzer. It requires all randomness
// to flow through internal/sim's named-stream API in every package of
// the module, internal/sim included. Constructing or seeding a
// generator from math/rand bypasses the stream-genealogy discipline
// that makes sweeps reproducible, so any use of math/rand is an error.
func checkRNGStream(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path := importPathOf(imp)
			if rngPackages[path] {
				out = append(out, finding(p, "rngstream", imp,
					"import of %s: all randomness must flow through fsoi/internal/sim named streams (sim.NewRNG at the root, NewStream below)", path))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := p.Info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || !rngPackages[obj.Pkg().Path()] {
				return true
			}
			remedy := "replace with a (*sim.RNG) stream draw"
			switch obj.Name() {
			case "New", "NewSource", "NewPCG", "NewChaCha8":
				remedy = "derive a generator with (*sim.RNG).NewStream(name) instead"
			case "Seed":
				remedy = "seeding a global generator breaks stream genealogy; seed only via sim.NewRNG(cfg.Seed)"
			}
			out = append(out, finding(p, "rngstream", sel,
				"use of %s.%s: %s", obj.Pkg().Path(), obj.Name(), remedy))
			return true
		})
	}
	return out
}

// isUnder reports whether rel is strictly inside the package root.
func isUnder(rel, root string) bool {
	return len(rel) > len(root) && rel[:len(root)] == root && rel[len(root)] == '/'
}

// importPathOf unquotes an import spec's path.
func importPathOf(imp *ast.ImportSpec) string {
	s := imp.Path.Value
	if len(s) >= 2 {
		return s[1 : len(s)-1]
	}
	return s
}
