// Package lint is the repository's determinism-and-invariant static
// analysis suite. The simulator's core claim — bit-identical results
// for identical seeds — rests on conventions (named RNG streams, no
// wall-clock time, no map-iteration order leaking into simulated state)
// that this package turns from reviewer vigilance into machine-checked
// invariants. It is built only on the standard library's go/ast,
// go/parser, and go/types; the module keeps its zero-dependency
// property.
//
// Findings can be suppressed per line with a justification:
//
//	x := compute() //lint:allow floateq exact sentinel set two lines up
//
// The comment may also sit alone on the line directly above the
// offending one. The reason is mandatory: an allow without one is
// itself a finding, as is an allow that no longer suppresses anything.
package lint

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"

	"fsoi/internal/parallel"
)

// Finding is one rule violation at one position.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Analyzer is one checkable invariant.
type Analyzer interface {
	// Name is the identifier used in reports and //lint:allow comments.
	Name() string
	// Doc is a one-line description of what the analyzer forbids.
	Doc() string
	// Check reports every violation in the package.
	Check(p *Package) []Finding
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []Analyzer {
	return []Analyzer{DetSource{}, MapOrder{}, RNGStream{}, FloatEq{}, Units{}}
}

// simPackages are the module-relative package roots whose code runs
// inside the simulated clock domain. Determinism rules are strict here:
// simulated state must never observe host time, host scheduling, or
// unnamed randomness. Subdirectories inherit the classification.
var simPackages = []string{
	"internal/core",
	"internal/sim",
	"internal/coherence",
	"internal/system",
	"internal/mesh",
	"internal/fault",
	"internal/cpu",
	"internal/workload",
	"internal/obs",
	"internal/corona",
	"internal/adversary",
}

// isSimPackage reports whether the module-relative path rel is (or is
// nested under) a simulation package.
func isSimPackage(rel string) bool {
	for _, p := range simPackages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// concurrencyAllowlist names the packages that may use goroutines,
// select, and the sync primitives. Host concurrency is architecturally
// confined to these audited packages — everything else in the module,
// cmd/ and examples/ binaries included, must go through them
// (fsoi/internal/parallel merges results by submission index, so
// callers stay byte-identical to serial). The binaries keep only the
// wall-clock exemption: time.Now for benchmark timing never touches
// simulated state, but ad-hoc fan-out in a driver would reorder
// result aggregation just as surely as it would inside internal/.
var concurrencyAllowlist = []string{
	"internal/parallel",
	// The withdrawn sharded engines: no simulation runs on them, and
	// only the benchmark's engine measurements in bench/ build the
	// package. Its window runner fans shards out over the
	// internal/parallel pool. The entry goes with the package.
	"internal/sim/shard",
}

// bansConcurrency reports whether the module-relative path rel is
// outside the concurrency allowlist. Every module package is in scope.
func bansConcurrency(rel string) bool {
	for _, p := range concurrencyAllowlist {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return false
		}
	}
	return true
}

// finding builds a Finding for node n in package p.
func finding(p *Package, analyzer string, n ast.Node, format string, args ...any) Finding {
	pos := p.Fset.Position(n.Pos())
	return Finding{
		Analyzer: analyzer,
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// allow is one parsed //lint:allow directive.
type allow struct {
	analyzer string
	reason   string
	file     string
	line     int
	used     bool
}

const allowPrefix = "//lint:allow"

// parseAllow reads one comment as a //lint:allow directive: the prefix,
// whitespace, a known analyzer's name, whitespace and a reason. A
// comment that does not start with the prefix is not a directive (ok is
// false). Every one that does is: either well formed, with the analyzer
// and the reason (its words joined by single spaces), or malformed, with
// problem saying why. Text run on to the prefix, as in
// "//lint:allowfloateq x", is malformed: it names no analyzer.
func parseAllow(comment string, known map[string]bool) (analyzer, reason, problem string, ok bool) {
	text, ok := strings.CutPrefix(comment, allowPrefix)
	if !ok {
		return "", "", "", false
	}
	fields := strings.Fields(text)
	switch {
	case len(fields) == 0 || text[0] != ' ' && text[0] != '\t':
		return "", "", "malformed suppression: want //lint:allow <analyzer> <reason>", true
	case !known[fields[0]]:
		return "", "", fmt.Sprintf("suppression names unknown analyzer %q", fields[0]), true
	case len(fields) < 2:
		return "", "", fmt.Sprintf("suppression of %q has no reason: a justification is mandatory", fields[0]), true
	}
	return fields[0], strings.Join(fields[1:], " "), "", true
}

// collectAllows parses every //lint:allow directive in the package.
// Malformed directives (missing analyzer or missing reason) are
// reported immediately as findings from the pseudo-analyzer "lint".
func collectAllows(p *Package, known map[string]bool) (allows []*allow, bad []Finding) {
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				analyzer, reason, problem, ok := parseAllow(c.Text, known)
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				if problem != "" {
					bad = append(bad, Finding{Analyzer: "lint", File: pos.Filename, Line: pos.Line, Col: pos.Column, Message: problem})
					continue
				}
				allows = append(allows, &allow{analyzer: analyzer, reason: reason, file: pos.Filename, line: pos.Line})
			}
		}
	}
	return allows, bad
}

// RunWorkers executes the analyzers over the packages and applies
// suppression directives. It returns the surviving findings sorted by
// position. Packages are analyzed on up to `workers` goroutines of the
// internal/parallel pool and the findings merged by submission index,
// so the output is byte-identical to the serial run at every worker
// count. Analyzers only read their own *Package, so package-level
// checks are share-nothing jobs.
func RunWorkers(pkgs []*Package, analyzers []Analyzer, workers int) []Finding {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	perPkg := parallel.Map(len(pkgs), workers, func(i int) []Finding {
		return runPackage(pkgs[i], analyzers, known)
	})
	var out []Finding
	for _, fs := range perPkg {
		out = append(out, fs...)
	}
	sortFindings(out)
	return out
}

// runPackage applies the suite and the suppression directives to one
// package.
func runPackage(p *Package, analyzers []Analyzer, known map[string]bool) []Finding {
	allows, bad := collectAllows(p, known)
	out := bad

	// An allow on line N suppresses findings of its analyzer on
	// line N (trailing comment) and line N+1 (comment above).
	byKey := make(map[string][]*allow)
	key := func(file string, line int, analyzer string) string {
		return fmt.Sprintf("%s\x00%d\x00%s", file, line, analyzer)
	}
	for _, a := range allows {
		byKey[key(a.file, a.line, a.analyzer)] = append(byKey[key(a.file, a.line, a.analyzer)], a)
		byKey[key(a.file, a.line+1, a.analyzer)] = append(byKey[key(a.file, a.line+1, a.analyzer)], a)
	}

	for _, a := range analyzers {
		for _, f := range a.Check(p) {
			matched := false
			for _, al := range byKey[key(f.File, f.Line, f.Analyzer)] {
				al.used = true
				matched = true
			}
			if !matched {
				out = append(out, f)
			}
		}
	}
	for _, al := range allows {
		if !al.used {
			out = append(out, Finding{
				Analyzer: "lint", File: al.file, Line: al.line, Col: 1,
				Message: fmt.Sprintf("unused suppression of %q: the code it excused is gone, delete the comment", al.analyzer),
			})
		}
	}
	return out
}

// Suppression is one well-formed //lint:allow directive, exposed for
// the suppression-budget report: CI fails when the count per
// (analyzer, file) grows, so every new allow is a reviewed decision.
type Suppression struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Reason   string `json:"reason"`
}

// Suppressions collects every well-formed allow directive in the
// packages, sorted by position. Malformed directives are ignored here;
// RunWorkers reports them as findings.
func Suppressions(pkgs []*Package, analyzers []Analyzer) []Suppression {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	var out []Suppression
	for _, p := range pkgs {
		allows, _ := collectAllows(p, known)
		for _, a := range allows {
			out = append(out, Suppression{Analyzer: a.analyzer, File: a.file, Line: a.line, Reason: a.reason})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// sortFindings orders findings by file, line, column, analyzer.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}
