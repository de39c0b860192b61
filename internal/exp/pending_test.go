package exp

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// pendingAllowed are the PENDING- markers EXPERIMENTS.md may still carry,
// each standing for a paper figure not yet recorded under results/. The
// list only shrinks: recording a figure deletes its marker here and in
// the document.
var pendingAllowed = map[string]bool{"FIG7": true, "TABLE4": true, "HINTS": true, "CORONA": true}

// extensionIDs are the registered experiments that reproduce no figure
// of the paper, so need no results/ file. Every other registered id is a
// paper figure or table.
var extensionIDs = map[string]bool{"frontier": true, "faults": true, "layout": true, "thermal": true, "resilience": true}

// TestPendingMarkersOnlyShrink ratchets the record of the paper's
// figures: EXPERIMENTS.md names no PENDING- marker beyond today's four,
// and every registered paper figure either has a section in a results/
// file (a "==== <id> — " header, as experiments prints it) or still
// carries its marker.
func TestPendingMarkersOnlyShrink(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	pending := map[string]bool{}
	for _, m := range regexp.MustCompile(`PENDING-([A-Z0-9]+)`).FindAllStringSubmatch(string(doc), -1) {
		if !pendingAllowed[m[1]] {
			t.Errorf("EXPERIMENTS.md gained marker PENDING-%s: record the figure instead", m[1])
		}
		pending[m[1]] = true
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "results", "*.txt"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no results/*.txt files (%v)", err)
	}
	recorded := map[string]bool{}
	header := regexp.MustCompile(`(?m)^==== (\S+) — `)
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range header.FindAllStringSubmatch(string(text), -1) {
			recorded[m[1]] = true
		}
	}
	for _, e := range Registry {
		if extensionIDs[e.ID] || recorded[e.ID] || pending[strings.ToUpper(e.ID)] {
			continue
		}
		t.Errorf("paper figure %s has no results/ section and no PENDING-%s marker", e.ID, strings.ToUpper(e.ID))
	}
}
