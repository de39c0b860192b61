package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// knownAnalyzers is the suite's name set, as Run builds it, and the
// names in table order.
func knownAnalyzers() (map[string]bool, []string) {
	var names []string
	for _, a := range Analyzers {
		names = append(names, a.Name)
	}
	return analyzerNames(), names
}

// TestAllowDirectiveForms pins the directive grammar by example,
// including text run on to the prefix: "//lint:allowfloateq x" names no
// analyzer, so it is malformed and suppresses nothing.
func TestAllowDirectiveForms(t *testing.T) {
	known, _ := knownAnalyzers()
	for _, c := range []struct {
		comment, analyzer, reason, problem string
		directive                          bool
	}{
		{"//lint:allow floateq exact sentinel", "floateq", "exact sentinel", "", true},
		{"//lint:allow  floateq   two\tspaces  ", "floateq", "two spaces", "", true},
		{"//lint:allow\tmaporder tab-separated", "maporder", "tab-separated", "", true},
		{"//lint:allowfloateq x", "", "", "malformed suppression: want //lint:allow <analyzer> <reason>", true},
		{"//lint:allow", "", "", "malformed suppression: want //lint:allow <analyzer> <reason>", true},
		{"//lint:allow   ", "", "", "malformed suppression: want //lint:allow <analyzer> <reason>", true},
		{"//lint:allow floateq", "", "", `suppression of "floateq" has no reason: a justification is mandatory`, true},
		{"//lint:allow nosuch why", "", "", `suppression names unknown analyzer "nosuch"`, true},
		{"// lint:allow floateq x", "", "", "", false},
		{"//nolint:allow floateq x", "", "", "", false},
	} {
		analyzer, reason, problem, ok := parseAllow(c.comment, known)
		if analyzer != c.analyzer || reason != c.reason || problem != c.problem || ok != c.directive {
			t.Errorf("parseAllow(%q) = (%q, %q, %q, %v), want (%q, %q, %q, %v)", c.comment,
				analyzer, reason, problem, ok, c.analyzer, c.reason, c.problem, c.directive)
		}
	}
}

// collectOne runs collectAllows over a file holding one line comment,
// reporting false when the comment does not survive the Go parser as
// itself (invalid UTF-8, a NUL byte).
func collectOne(comment string, known map[string]bool) ([]*allow, []Finding, bool) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "a.go", "package p\n\n"+comment+"\n", parser.ParseComments)
	if err != nil || len(f.Comments) != 1 || f.Comments[0].List[0].Text != comment {
		return nil, nil, false
	}
	allows, bad := collectAllows(&Package{Fset: fset, Files: []*ast.File{f}}, known)
	return allows, bad, true
}

// FuzzAllowDirective holds the directive parse to three properties: it
// never panics; a directive written from a known analyzer and a reason
// reads back as that analyzer and the reason's words; and a comment is
// exactly one allow if well formed, exactly one finding if malformed,
// and neither if it is not a directive.
func FuzzAllowDirective(f *testing.F) {
	f.Add("//lint:allow floateq exact sentinel", uint8(3), "exact sentinel set above")
	f.Add("//lint:allowfloateq x", uint8(0), "  two  words ")
	f.Add("//lint:allow", uint8(1), "")
	f.Add("//lint:allow nosuch why", uint8(2), "\t")
	f.Add("// not a directive", uint8(4), "why")
	known, names := knownAnalyzers()
	f.Fuzz(func(t *testing.T, comment string, pick uint8, reason string) {
		name := names[int(pick)%len(names)]
		analyzer, got, problem, ok := parseAllow(allowPrefix+" "+name+" "+reason, known)
		want := strings.Join(strings.Fields(reason), " ")
		switch {
		case !ok:
			t.Fatalf("a comment opening with %q is not read as a directive", allowPrefix)
		case want == "" && problem == "":
			t.Fatalf("reason %q: accepted with no reason", reason)
		case want != "" && (analyzer != name || got != want || problem != ""):
			t.Fatalf("reason %q: read back as (%q, %q, %q), want (%q, %q)", reason, analyzer, got, problem, name, want)
		}

		comment = "//" + strings.NewReplacer("\n", " ", "\r", " ").Replace(strings.TrimPrefix(comment, "//"))
		analyzer, got, problem, ok = parseAllow(comment, known)
		allows, bad, parsed := collectOne(comment, known)
		if !parsed {
			return
		}
		switch {
		case !ok && (len(allows) != 0 || len(bad) != 0):
			t.Fatalf("%q is no directive but yields %d allows and %d findings", comment, len(allows), len(bad))
		case ok && problem != "" && (len(allows) != 0 || len(bad) != 1 || bad[0].Message != problem):
			t.Fatalf("malformed %q yields %d allows and findings %v, want exactly one finding: %s", comment, len(allows), bad, problem)
		case ok && problem == "" && (len(bad) != 0 || len(allows) != 1 || allows[0].analyzer != analyzer || allows[0].reason != got):
			t.Fatalf("well-formed %q yields findings %v and %d allows, want one allow of %q", comment, bad, len(allows), analyzer)
		}
	})
}
