package exp

import (
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestClaimsTable: every claim has its own ID, names a registered
// experiment, and states the number it holds (drop "~"; "%" divides by
// 100; drop "x"). TestRegistryWorkerEquivalence checks that the
// experiment reports the claim's Key.
func TestClaimsTable(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Claims {
		if seen[c.ID] {
			t.Errorf("claim %s appears twice", c.ID)
		}
		seen[c.ID] = true
		if _, ok := Lookup(c.Exp); !ok {
			t.Errorf("claim %s: %q is no registered experiment", c.ID, c.Exp)
		}
		if c.Key == "" || c.Source == "" || c.Quantity == "" || c.Population == "" {
			t.Errorf("claim %s leaves a field empty: %+v", c.ID, c)
		}
		text, div := strings.TrimPrefix(c.Stated, "~"), 1.0
		if s, ok := strings.CutSuffix(text, "%"); ok {
			text, div = s, 100
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(text, "x"), 64)
		if err != nil || math.Abs(v/div-c.Paper) > 1e-12*math.Abs(c.Paper) {
			t.Errorf("claim %s: stated %q reads %v (%v), holds %v", c.ID, c.Stated, v/div, err, c.Paper)
		}
	}
}

// TestFastClaimsHoldTheirBands pins the claims that Table 1 and Figure 4
// reproduce in under a second: each reading lies in a band about the
// paper's number, written with its reason. Fig 4 runs at 3000 trials,
// where every band below held for seeds 1-16.
func TestFastClaimsHoldTheirBands(t *testing.T) {
	o := tiny()
	o.Trials = 3000
	got := map[string]Result{"table1": Table1(o), "fig4": Fig4(o)}
	for _, pin := range []struct {
		claim, key string
		lo, hi     float64
		why        string
	}{
		{"table1.path_loss", "path_loss_db", 2.4, 2.8,
			"within 0.2 dB, two mirror reflections' loss, of the paper's device extraction: the repo's Gaussian-beam route reads 2.70"},
		{"table1.snr", "snr_db", 7.5, 8.1,
			"from the paper's 7.5 dB to the 8.0 dB that its own BER of 1e-10 needs (Q = 6.36) under the 10·log10(Q) convention: the two figures disagree by 0.5 dB, and the repo reads 8.0 (Q = 6.31)"},
		{"table1.ber", "ber", 1e-11, 1e-9,
			"a decade either side of the paper's 1e-10: near Q = 6 a decade is 0.2 dB of SNR, the precision of the paper's one-decimal dB figures"},
		{"fig4.w", "opt_w_g1", 2.0, 3.0,
			"the grid's neighbours of the paper's 2.7: the surface's valley is within 2 % across W = 2.0-3.0, so Monte Carlo noise moves the minimum among them (2.0 or 2.7 at G = 1 %, 2.7 or 3.0 at G = 10 %)"},
		{"fig4.w", "opt_w_g10", 2.0, 3.0, "as at G = 1 %"},
		{"fig4.b", "opt_b_g1", 1.05, 1.2,
			"the grid's neighbours of the paper's 1.1: along B the valley is within 1 % between them"},
		{"fig4.b", "opt_b_g10", 1.05, 1.2, "as at G = 1 %"},
		{"fig4.delay", "opt_delay_g1", 5.5, 8.5,
			"the paper's 7.26 names no background rate, and one band holds the repo's optimum at both: 5.8-6.0 cycles at G = 1 %, 7.7-8.1 at G = 10 %; the slot model leaves out the paper's queuing detail"},
		{"fig4.delay", "opt_delay_g10", 5.5, 8.5, "as at G = 1 %"},
	} {
		c := claim(t, pin.claim)
		if c.Paper < pin.lo || c.Paper > pin.hi {
			t.Errorf("%s: the band [%g, %g] leaves out the paper's %g", pin.claim, pin.lo, pin.hi, c.Paper)
		}
		v, ok := got[c.Exp].Values[pin.key]
		if !ok || !(v >= pin.lo && v <= pin.hi) {
			t.Errorf("%s: %s %s reads %g (reported %v), outside [%g, %g]: %s", pin.claim, c.Exp, pin.key, v, ok, pin.lo, pin.hi, pin.why)
		}
	}
}

// claim returns the row with the id.
func claim(t *testing.T, id string) Claim {
	t.Helper()
	for _, c := range Claims {
		if c.ID == id {
			return c
		}
	}
	t.Fatalf("no claim %s", id)
	return Claim{}
}

// TestDESIGNClaimsBlock: DESIGN §4's table of the paper's numbers is
// rendered from Claims and fails when the two differ. To refresh it,
// paste the block this test prints.
func TestDESIGNClaimsBlock(t *testing.T) {
	const begin, end = "<!-- claims: generated from internal/exp's Claims table (TestDESIGNClaimsBlock) -->\n", "<!-- /claims -->\n"
	var b strings.Builder
	b.WriteString(begin + "| claim | source | quantity | population | paper | reported as |\n|---|---|---|---|---|---|\n")
	for _, c := range Claims {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | `%s` `%s` |\n", c.ID, c.Source, c.Quantity, c.Population, c.Stated, c.Exp, c.Key)
	}
	b.WriteString(end)
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(design), begin)
	block, _, closed := strings.Cut(rest, end)
	if want := b.String(); !ok || !closed || begin+block+end != want {
		t.Errorf("DESIGN's claims block differs from the Claims table; want:\n%s", want)
	}
}

// TestDESIGNExperimentIndex: DESIGN §4's experiment index names every
// Registry id exactly once, in its last column ("exp `fig6`"), and no id
// the Registry lacks.
func TestDESIGNExperimentIndex(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "\n| ID | What the paper shows |")
	if !ok {
		t.Fatal("DESIGN has no experiment index")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	rows := strings.Split(table, "\n")[2:] // past the header's rest and the rule
	id := regexp.MustCompile("`([a-z][a-z0-9]*)`")
	named := map[string]int{}
	for _, row := range rows {
		cells := strings.Split(row, "|")
		if len(cells) < 3 {
			t.Fatalf("index row %q has no last column", row)
		}
		for _, m := range id.FindAllStringSubmatch(cells[len(cells)-2], -1) {
			named[m[1]]++
		}
	}
	for _, e := range Registry {
		if named[e.ID] != 1 {
			t.Errorf("the index names %s %d times, want once", e.ID, named[e.ID])
		}
		delete(named, e.ID)
	}
	for id := range named {
		t.Errorf("the index names %s, which is no Registry id", id)
	}
}
