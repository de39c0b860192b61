package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sup(analyzer, file string) Suppression {
	return Suppression{Analyzer: analyzer, File: file, Line: 1, Reason: "r"}
}

func TestCheckBudgetGrowthFails(t *testing.T) {
	b := Budget{Entries: map[string]BudgetEntry{
		"floateq a.go": {Count: 1, Since: "2026-01-01"},
	}}
	cases := []struct {
		name       string
		sups       []Suppression
		violations int
		notes      int
	}{
		{"within budget", []Suppression{sup("floateq", "a.go")}, 0, 0},
		{"count grew", []Suppression{sup("floateq", "a.go"), sup("floateq", "a.go")}, 1, 0},
		{"new key", []Suppression{sup("floateq", "a.go"), sup("units", "b.go")}, 1, 0},
		{"shrank", nil, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			violations, notes := CheckBudget(b, tc.sups, "")
			if len(violations) != tc.violations {
				t.Errorf("violations = %v, want %d", violations, tc.violations)
			}
			if len(notes) != tc.notes {
				t.Errorf("notes = %v, want %d", notes, tc.notes)
			}
		})
	}
}

func TestMakeBudgetPreservesSince(t *testing.T) {
	prev := Budget{Entries: map[string]BudgetEntry{
		"floateq a.go": {Count: 3, Since: "2025-11-02"},
	}}
	sups := []Suppression{sup("floateq", "a.go"), sup("units", "b.go")}
	b := MakeBudget(sups, prev, "", "2026-08-07")
	if got := b.Entries["floateq a.go"]; got.Count != 1 || got.Since != "2025-11-02" {
		t.Errorf("surviving key = %+v, want count 1 since 2025-11-02", got)
	}
	if got := b.Entries["units b.go"]; got.Count != 1 || got.Since != "2026-08-07" {
		t.Errorf("new key = %+v, want count 1 since today", got)
	}
}

func TestBudgetRoundTripIsByteStable(t *testing.T) {
	b := MakeBudget([]Suppression{sup("units", "z.go"), sup("floateq", "a.go")}, Budget{}, "", "2026-08-07")
	out1, err := MarshalBudget(b)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseBudget(out1)
	if err != nil {
		t.Fatal(err)
	}
	out2, err := MarshalBudget(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1, out2) {
		t.Errorf("marshal/parse/marshal not byte-stable:\n%s\nvs\n%s", out1, out2)
	}
	if !bytes.HasSuffix(out1, []byte("\n")) {
		t.Error("budget file must end in a newline")
	}
}

func TestRepositoryBudgetCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is not short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	data, err := readBudgetFile(loader.Root)
	if err != nil {
		t.Fatal(err)
	}
	budget, err := ParseBudget(data)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	violations, notes := CheckBudget(budget, Suppressions(pkgs), loader.Root)
	for _, v := range violations {
		t.Errorf("budget violation: %s", v)
	}
	for _, n := range notes {
		t.Errorf("stale budget entry: %s", n)
	}
}

func readBudgetFile(root string) ([]byte, error) {
	return os.ReadFile(filepath.Join(root, ".lint-budget.json"))
}

func TestWriteSARIF(t *testing.T) {
	findings := []Finding{{
		Analyzer: "units",
		File:     "/mod/internal/power/power.go",
		Line:     12,
		Col:      9,
		Message:  "strips the Watts unit",
	}}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, findings, "/mod"); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" {
		t.Errorf("version = %q", log.Version)
	}
	if len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "fsoilint" {
		t.Fatalf("want one run with driver fsoilint, got %+v", log.Runs)
	}
	// One rule per analyzer plus the "lint" pseudo-analyzer.
	if got, want := len(log.Runs[0].Tool.Driver.Rules), len(Analyzers)+1; got != want {
		t.Errorf("rules = %d, want %d", got, want)
	}
	res := log.Runs[0].Results
	if len(res) != 1 || res[0].RuleID != "units" || res[0].Level != "error" {
		t.Fatalf("results = %+v", res)
	}
	loc := res[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/power/power.go" {
		t.Errorf("uri = %q, want module-relative path", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 12 {
		t.Errorf("startLine = %d", loc.Region.StartLine)
	}
}

func TestSuppressionsCollectsFixtureAllows(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.LoadDir(filepath.Join("testdata", "src", "units"), "fsoi/internal/power")
	if err != nil {
		t.Fatal(err)
	}
	sups := Suppressions([]*Package{p})
	if len(sups) != 2 {
		t.Fatalf("suppressions = %+v, want the two units allows", sups)
	}
	for _, s := range sups {
		if s.Analyzer != "units" || s.Reason == "" || s.Line == 0 {
			t.Errorf("malformed suppression record: %+v", s)
		}
		if filepath.Base(s.File) != "power.go" {
			t.Errorf("suppression in wrong file: %+v", s)
		}
	}
	if !strings.Contains(sups[0].Reason, "dimensionless") {
		t.Errorf("reasons out of order or lost: %+v", sups)
	}
}
