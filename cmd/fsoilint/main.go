// Command fsoilint runs the repository's determinism-and-invariant
// static-analysis suite (internal/lint) over the module.
//
// Usage:
//
//	fsoilint ./...                 # whole module
//	fsoilint ./internal/core       # one package
//	fsoilint -sarif out.sarif ./...# SARIF 2.1.0 for code-scanning upload
//	fsoilint -list                 # describe the analyzers
//
// Suppress a finding on one line with a mandatory justification:
//
//	total := a + b //lint:allow floateq comparing against an exact sentinel
//
// Suppressions are budgeted: .lint-budget.json at the module root
// entitles each (analyzer, file) pair to a count and records when it
// was granted. `-budget .lint-budget.json` fails on any growth;
// `-writebudget .lint-budget.json` regenerates the file (preserving
// grant dates) after a reviewed change to the suppression set.
//
// Exit status: 0 clean, 1 findings or budget violations, 2 usage or
// load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fsoi/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	sarifPath := flag.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	budgetPath := flag.String("budget", "", "check //lint:allow counts against this committed budget file")
	writeBudget := flag.String("writebudget", "", "regenerate this budget file from the current suppressions and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fatal(err)
	}

	selected := pkgs[:0]
	for _, p := range pkgs {
		if matchesAny(loader, p, patterns, wd) {
			selected = append(selected, p)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("fsoilint: no packages match %v", patterns))
	}

	findings := lint.Run(selected)

	if *sarifPath != "" {
		f, err := os.Create(*sarifPath)
		if err != nil {
			fatal(err)
		}
		if err := lint.WriteSARIF(f, findings, loader.Root); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "fsoilint: %d finding(s)\n", len(findings))
	}

	failed := len(findings) > 0

	if *writeBudget != "" {
		if err := regenerateBudget(*writeBudget, selected, loader.Root); err != nil {
			fatal(err)
		}
	} else if *budgetPath != "" {
		ok, err := checkBudget(*budgetPath, selected, loader.Root)
		if err != nil {
			fatal(err)
		}
		if !ok {
			failed = true
		}
	}

	if failed {
		os.Exit(1)
	}
}

// checkBudget enforces the suppression ratchet: every //lint:allow in
// the selected packages must fit inside the committed entitlement.
func checkBudget(path string, pkgs []*lint.Package, root string) (ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("fsoilint: reading budget: %w", err)
	}
	budget, err := lint.ParseBudget(data)
	if err != nil {
		return false, err
	}
	sups := lint.Suppressions(pkgs)
	violations, notes := lint.CheckBudget(budget, sups, root)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "fsoilint: budget: %s\n", v)
	}
	for _, n := range notes {
		fmt.Fprintf(os.Stderr, "fsoilint: budget note: %s\n", n)
	}
	fmt.Fprintf(os.Stderr, "fsoilint: budget: %d suppression(s) across %d budgeted key(s)\n",
		len(sups), len(budget.Entries))
	return len(violations) == 0, nil
}

// regenerateBudget rewrites the budget file from the current
// suppression set, preserving the grant date of keys that survive.
func regenerateBudget(path string, pkgs []*lint.Package, root string) error {
	prev := lint.Budget{}
	if data, err := os.ReadFile(path); err == nil {
		if prev, err = lint.ParseBudget(data); err != nil {
			return err
		}
	}
	sups := lint.Suppressions(pkgs)
	today := time.Now().UTC().Format("2006-01-02")
	out, err := lint.MarshalBudget(lint.MakeBudget(sups, prev, root, today))
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fsoilint: wrote %s (%d suppression(s))\n", path, len(sups))
	return nil
}

// matchesAny reports whether package p matches one of the argument
// patterns: "./..." (everything), a "dir/..." subtree, a relative
// directory, or a plain import path.
func matchesAny(l *lint.Loader, p *lint.Package, patterns []string, wd string) bool {
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			return true
		}
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			if under(l, p, rest, wd) || relOf(l, rest, wd) == p.ModuleRel {
				return true
			}
			continue
		}
		if relOf(l, pat, wd) == p.ModuleRel || pat == p.ImportPath {
			return true
		}
	}
	return false
}

// relOf normalizes a pattern to a module-relative path.
func relOf(l *lint.Loader, pat, wd string) string {
	pat = strings.TrimPrefix(pat, "./")
	if strings.HasPrefix(pat, l.ModPath+"/") {
		return strings.TrimPrefix(pat, l.ModPath+"/")
	}
	abs := filepath.Join(wd, filepath.FromSlash(pat))
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return pat
	}
	return filepath.ToSlash(rel)
}

// under reports whether p sits inside the subtree named by pattern
// prefix.
func under(l *lint.Loader, p *lint.Package, prefix, wd string) bool {
	rel := relOf(l, prefix, wd)
	return rel == "." || rel == "" || strings.HasPrefix(p.ModuleRel, rel+"/")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
