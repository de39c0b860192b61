// Command fsoilint runs the repository's determinism-and-invariant
// static-analysis suite (internal/lint) over the module.
//
// Usage:
//
//	fsoilint ./...                 # whole module
//	fsoilint ./internal/core       # one package
//	fsoilint -list                 # describe the analyzers
//
// Patterns go to `go list` unchanged, so they mean what they mean to
// `go build` run in the working directory: from a subdirectory, ./...
// is that subtree.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"fsoi/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind a testable seam: it lints the
// packages the arguments name, from the working directory, and returns
// the exit code instead of calling os.Exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fsoilint", flag.ContinueOnError)
	// A bad flag is one fail line like any other bad input; only -h
	// prints the usage.
	fs.SetOutput(io.Discard)
	list := fs.Bool("list", false, "list analyzers and exit")
	budgetPath := fs.String("budget", "", "check //lint:allow counts against this committed budget file")
	writeBudget := fs.String("writebudget", "", "regenerate this budget file from the current suppressions and exit")
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fsoilint:", err)
		return 2
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
			return 0
		}
		return fail(err)
	}

	if *list {
		for _, a := range lint.Analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := lint.NewLoader(".", patterns...)
	if err != nil {
		return fail(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return fail(err)
	}

	findings := lint.Run(pkgs)
	code := 0
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "fsoilint: %d finding(s)\n", len(findings))
		code = 1
	}

	if *writeBudget != "" {
		if err := regenerateBudget(*writeBudget, pkgs, loader.Root, stderr); err != nil {
			return fail(err)
		}
	} else if *budgetPath != "" {
		ok, err := checkBudget(*budgetPath, pkgs, loader.Root, stderr)
		if err != nil {
			return fail(err)
		}
		if !ok {
			code = 1
		}
	}
	return code
}

// checkBudget enforces the suppression ratchet: every //lint:allow in
// the linted packages must fit inside the committed entitlement.
func checkBudget(path string, pkgs []*lint.Package, root string, stderr io.Writer) (ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("reading budget: %w", err)
	}
	budget, err := lint.ParseBudget(data)
	if err != nil {
		return false, err
	}
	sups := lint.Suppressions(pkgs)
	violations, notes := lint.CheckBudget(budget, sups, root)
	for _, v := range violations {
		fmt.Fprintf(stderr, "fsoilint: budget: %s\n", v)
	}
	for _, n := range notes {
		fmt.Fprintf(stderr, "fsoilint: budget note: %s\n", n)
	}
	fmt.Fprintf(stderr, "fsoilint: budget: %d suppression(s) across %d budgeted key(s)\n",
		len(sups), len(budget.Entries))
	return len(violations) == 0, nil
}

// regenerateBudget rewrites the budget file from the current
// suppression set, preserving the grant date of keys that survive.
func regenerateBudget(path string, pkgs []*lint.Package, root string, stderr io.Writer) error {
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
	fmt.Fprintf(stderr, "fsoilint: wrote %s (%d suppression(s))\n", path, len(sups))
	return nil
}
