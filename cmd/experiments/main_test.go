package main

import (
	"bytes"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"fsoi/internal/exp"
)

// TestBadInvocationsExitTwoWithOneLine: everything a user can get wrong
// about experiment ids and sweep inputs is reported before any
// simulation starts, as one "experiments: ..." line and exit code 2.
func TestBadInvocationsExitTwoWithOneLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		args string
		want string // substring of the one line
	}{
		{"unknown id", "-run fig99", `unknown experiment "fig99"`},
		{"unknown id beside a known one", "-run fig3,nope", `unknown experiment "nope"`},
		{"penalty not a number", "-run faults -penalties 0,x", "bad -penalties"},
		{"negative penalty", "-run faults -penalties 0,-1", "negative penalty"},
		{"intensity outside (0,1)", "-run resilience -intensities 0.5,1.5", "bad -intensities"},
		{"unknown role", "-run resilience -roles jammer,troll", `unknown role "troll"`},
		{"non-square node count", "-run resilience -nodes 20", "bad -nodes"},
		{"one node (fsoisim's nodes row)", "-run resilience -nodes 16,1", "nodes is 1; want [4, 15360]"},
		{"past the address layout", "-run resilience -nodes 15376", "nodes is 15376; want [4, 15360]"},
		{"unknown cooling", "-run faults -droop 0.03 -cooling lava", `unknown cooling "lava"`},
		{"thermal flag without -droop", "-run faults -cooling air", "droop"},
		{"probability out of range", "-run faults -confirm-drop 1.5", "-run faults"},
		{"faults flag without faults", "-run fig6 -penalties 0,2", `-penalties is an input of "faults"`},
		{"resilience flag without resilience", "-run faults -roles jammer", `-roles is an input of "resilience"`},
		{"no trials (fig4 used to panic)", "-run fig4 -trials 0", "-trials 0"},
		{"no trials (fig3 used to print 0.0000)", "-run fig3 -trials 0", "at least one trial"},
		{"negative trials", "-run fig3 -trials -5", "-trials -5"},
		{"negative scale (used to exit 0)", "-run table1 -scale -1", "-scale -1"},
		{"zero scale (used to exit 0)", "-run table1 -scale 0", "-scale 0"},
		{"zero seed (fsoisim refused it; used to exit 0)", "-run fig3 -trials 10 -seed 0", "seed is 0; want [1, +Inf)"},
		{"negative workers (used to run one per CPU)", "-run table1 -j -1", "-j -1"},
		{"scale past the workload's end (used to run 64 steps a thread)", "-run fig6 -scale 1e300", "want (0, 2000]"},
		{"negative route (linkbudget printed a -1000 mm budget)", "-run table1 -distance -1", "-distance is -1; want (0, 1]"},
		{"zero rate (linkbudget ran it)", "-run table1 -rate 0", "-rate is 0; want (0, 1e+12]"},
		{"bias below the lasing threshold", "-run table1 -bias 0.0001", "-bias is 0.0001"},
		{"lens wider than a node", "-run table1 -rxlens 0.01", "-rxlens is 0.01"},
		{"closed lens", "-run table1 -txlens 0", "-txlens is 0"},
		{"negative mirrors", "-run table1 -mirrors -1", "-mirrors is -1; want [0, 64]"},
		{"table1 flag without table1", "-run fig3 -distance 0.03", `-distance is an input of "table1"`},
		{"unknown app (used to print NaN)", "-run fig5 -apps nosuch", `unknown app "nosuch"`},
		{"unknown app lists the valid ones", "-run fig6 -apps jacobi,ftt", "valid: barnes, cholesky, fmm, fft,"},
		{"empty app name", "-run fig6 -apps jacobi,", `unknown app ""`},
		{"unknown flag (used to print the whole usage)", "-nosuch", "flag provided but not defined: -nosuch"},
		{"seed past uint64 (used to print the whole usage)", "-seed 1e30", `invalid value "1e30" for flag -seed`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		msg := stderr.String()
		if code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", tc.name, code, msg)
		}
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "experiments: ") {
			t.Errorf("%s: want one \"experiments: ...\" line, got %q", tc.name, msg)
		}
		if !strings.Contains(msg, tc.want) {
			t.Errorf("%s: stderr %q does not mention %q", tc.name, msg, tc.want)
		}
		if strings.Contains(msg, "goroutine ") {
			t.Errorf("%s: stack trace on stderr", tc.name)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote %q to stdout before failing", tc.name, stdout.String())
		}
	}
}

// TestSweepFlagsAllowedUnderRunAll: -run all selects every experiment,
// so every sweep input is in scope.
func TestSweepFlagsAllowedUnderRunAll(t *testing.T) {
	inv, code := parse(strings.Fields("-penalties 0,2 -roles jammer -nodes 16"), io.Discard)
	if inv == nil {
		t.Fatalf("sweep flags under the default -run all rejected with exit %d", code)
	}
}

// TestUnfinishedJobExitsOneAfterTheTable: the table still goes to stdout
// (it is the diagnosis), then every job that hit MaxCycles is one stderr
// line and the exit code is 1.
func TestUnfinishedJobExitsOneAfterTheTable(t *testing.T) {
	wedged := func(exp.Options) exp.Result {
		return exp.Result{Title: "T", Text: "table", Unfinished: []string{"lu on L0, 64 nodes", "ocean on L0, 64 nodes"}}
	}
	fine := func(exp.Options) exp.Result { return exp.Result{Title: "U", Text: "other"} }
	inv := &invocation{ids: []string{"fig7", "fig8"}, runners: []exp.Runner{wedged, fine}}
	var stdout, stderr bytes.Buffer
	code := inv.execute(&stdout, &stderr)
	out, msg := stdout.String(), stderr.String()
	if code != 1 || !strings.Contains(out, "table\n") || !strings.Contains(out, "other\n") {
		t.Fatalf("exit %d, stdout %q: want exit 1 with both tables printed", code, out)
	}
	if strings.Count(msg, "\n") != 2 || !strings.HasPrefix(msg, "experiments: fig7: lu on L0, 64 nodes did not finish") ||
		!strings.Contains(msg, "\nexperiments: fig7: ocean on L0, 64 nodes did not finish") {
		t.Fatalf("stderr %q: want one line per unfinished job, naming fig7", msg)
	}
}

// docCommand matches one `experiments -flag [value] ...` invocation in
// prose, a fenced block or a CI step, up to the first shell or markdown
// delimiter. Tokens may be separated by a line break, because markdown
// re-wraps long commands; <placeholder> values end the match.
var docCommand = regexp.MustCompile("experiments((?:\\s+-[a-z-]+(?:\\s+[^-\\s|<>#`)(][^\\s|<>#`)(]*)?)+)")

// TestDocumentedCommandsParse keeps the docs and CI honest: every
// `experiments ...` command line they show must still be accepted.
func TestDocumentedCommandsParse(t *testing.T) {
	total := 0
	for _, path := range []string{"../../README.md", "../../EXPERIMENTS.md", "../../DESIGN.md", "../../.github/workflows/ci.yml"} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// CI's bad-flags step lists commands that must NOT parse.
		text := string(data)
		if pre, rest, ok := strings.Cut(text, "- name: bad flags exit 2"); ok {
			_, post, _ := strings.Cut(rest, "- name:")
			text = pre + post
		}
		for _, m := range docCommand.FindAllStringSubmatch(text, -1) {
			args := strings.Fields(m[1])
			if len(args) == 1 && args[0] != "-list" {
				continue // a mention of one flag ("experiments -trace"), not a command
			}
			total++
			var stderr bytes.Buffer
			if inv, code := parse(args, &stderr); inv == nil {
				t.Errorf("%s: `experiments%s` no longer parses (exit %d): %s", path, m[1], code, stderr.String())
			}
		}
	}
	if total < 30 {
		t.Fatalf("found only %d documented commands; the extraction regexp has rotted", total)
	}
}
