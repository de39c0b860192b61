package lint

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
)

// The suppression budget is the ratchet that keeps //lint:allow from
// becoming a pressure valve: CI carries a committed .lint-budget.json
// mapping each (analyzer, file) to the number of allows it is entitled
// to and the date the entitlement was first granted. Any growth — a
// new key, or more allows under an existing key — fails the gate until
// the budget file is regenerated in the same reviewed change, so every
// suppression is a visible, dated decision rather than a drive-by.

// Budget is the committed suppression entitlement.
type Budget struct {
	// Entries maps "analyzer module/rel/file.go" to its allowance.
	Entries map[string]BudgetEntry `json:"entries"`
}

// BudgetEntry is the allowance for one (analyzer, file) pair.
type BudgetEntry struct {
	Count int    `json:"count"`
	Since string `json:"since"` // ISO date the first allow under this key was budgeted
}

// ParseBudget decodes a committed budget file.
func ParseBudget(data []byte) (Budget, error) {
	var b Budget
	if err := json.Unmarshal(data, &b); err != nil {
		return Budget{}, fmt.Errorf("lint: parsing budget: %w", err)
	}
	if b.Entries == nil {
		b.Entries = map[string]BudgetEntry{}
	}
	return b, nil
}

// budgetKey forms the map key for one suppression, with the file made
// module-relative so the budget is stable across checkout locations.
func budgetKey(s Suppression, root string) string {
	return s.Analyzer + " " + relURI(s.File, root)
}

// relURI converts an absolute path to a slash-separated path relative
// to root; paths outside root pass through unchanged.
func relURI(path, root string) string {
	if root == "" {
		return filepath.ToSlash(path)
	}
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(path)
	}
	return filepath.ToSlash(rel)
}

// groupSuppressions counts current suppressions per budget key.
func groupSuppressions(sups []Suppression, root string) map[string]int {
	counts := make(map[string]int)
	for _, s := range sups {
		counts[budgetKey(s, root)]++
	}
	return counts
}

// CheckBudget compares the current suppressions against the committed
// budget. Violations (growth: new keys or counts over entitlement)
// must fail CI; notes report shrinkage — entitlements no longer used,
// which should be ratcheted down by regenerating the file. Both lists
// are sorted for stable output.
func CheckBudget(b Budget, sups []Suppression, root string) (violations, notes []string) {
	counts := groupSuppressions(sups, root)
	for key, n := range counts {
		e, ok := b.Entries[key]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("new suppression key %q (%d allow(s)): regenerate the budget in this change with -writebudget", key, n))
			continue
		}
		if n > e.Count {
			violations = append(violations,
				fmt.Sprintf("suppressions under %q grew from %d to %d (budgeted since %s): justify and regenerate with -writebudget", key, e.Count, n, e.Since))
		}
	}
	for key, e := range b.Entries {
		if n := counts[key]; n < e.Count {
			notes = append(notes,
				fmt.Sprintf("budget for %q is %d but only %d allow(s) remain (since %s): ratchet down with -writebudget", key, e.Count, n, e.Since))
		}
	}
	sort.Strings(violations)
	sort.Strings(notes)
	return violations, notes
}

// MakeBudget builds the budget matching the current suppressions. The
// since date of keys already in prev is preserved — the budget records
// when a suppression was first granted, not when the file was last
// regenerated — and new keys are stamped with today (ISO YYYY-MM-DD).
func MakeBudget(sups []Suppression, prev Budget, root, today string) Budget {
	b := Budget{Entries: make(map[string]BudgetEntry)}
	for key, n := range groupSuppressions(sups, root) {
		since := today
		if e, ok := prev.Entries[key]; ok && e.Since != "" {
			since = e.Since
		}
		b.Entries[key] = BudgetEntry{Count: n, Since: since}
	}
	return b
}

// MarshalBudget renders the budget with sorted keys and a trailing
// newline, so regeneration is byte-stable and diff-friendly.
func MarshalBudget(b Budget) ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
