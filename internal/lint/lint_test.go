package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// fixtureVirtualPaths maps each testdata/src directory to the import
// path it impersonates. The choice matters: detsource's call bans only
// fire inside simulation packages, rngstream everywhere (internal/sim
// included: "simrand" impersonates it), and the "allowed" fixture pins the exact shape of the
// cmd/ exemption — wall-clock timing is free in a binary, but the
// module-wide concurrency ban still applies there.
var fixtureVirtualPaths = map[string]string{
	"detsource":   "fsoi/internal/core",
	"maporder":    "fsoi/internal/stats",
	"rngstream":   "fsoi/internal/exp",
	"simrand":     "fsoi/internal/sim",
	"floateq":     "fsoi/internal/optics",
	"allowed":     "fsoi/cmd/experiments",
	"parallelpkg": "fsoi/internal/parallel",
	"syncban":     "fsoi/internal/analytic",
	"units":       "fsoi/internal/power",
}

// LoadDir type-checks the .go files in dir, _test.go files left out,
// as one package that pretends to live at virtualPath inside the
// module. Fixture files use this to exercise package-scoped analyzers:
// a fixture granted the virtual path "fsoi/internal/core" is linted
// under simulation-package rules even though it lives in testdata.
func (l *Loader) LoadDir(dir, virtualPath string) (*Package, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var names []string
	for _, path := range paths {
		if !strings.HasSuffix(path, "_test.go") {
			names = append(names, filepath.Base(path))
		}
	}
	return l.check(virtualPath, dir, names)
}

// module is the whole module, loaded once per test binary by
// loadModule.
var module struct {
	once   sync.Once
	loader *Loader
	pkgs   []*Package
	err    error
}

// loadModule returns the loader of the module and every package in it.
// The analyzers only read packages, so the tests that check the whole
// module share one load.
func loadModule(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	module.once.Do(func() {
		module.loader, module.err = NewLoader(".", "fsoi/...")
		if module.err == nil {
			module.pkgs, module.err = module.loader.LoadAll()
		}
	})
	if module.err != nil {
		t.Fatal(module.err)
	}
	return module.loader, module.pkgs
}

// want is one expectation parsed from a fixture comment.
type want struct {
	file      string
	line      int
	re        *regexp.Regexp
	raw       string
	fulfilled bool
}

var (
	wantLineRe  = regexp.MustCompile(`//\s*want(-above)?\s+(.*)$`)
	wantQuoteRe = regexp.MustCompile(`"([^"]+)"`)
)

// parseWants scans every fixture source file for
//
//	// want "regexp" ["regexp" ...]
//	// want-above "regexp" ...   (expectation applies to the previous line)
//
// comments. Each regexp is matched against "analyzer: message" of the
// findings reported on that line.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantLineRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			target := line
			if m[1] == "-above" {
				target = line - 1
			}
			for _, q := range wantQuoteRe.FindAllStringSubmatch(m[2], -1) {
				wants = append(wants, &want{
					file: e.Name(),
					line: target,
					re:   regexp.MustCompile(q[1]),
					raw:  q[1],
				})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

func TestAnalyzersOnFixtures(t *testing.T) {
	loader, err := NewLoader(".", "fsoi/...")
	if err != nil {
		t.Fatal(err)
	}
	dirs := make([]string, 0, len(fixtureVirtualPaths))
	for d := range fixtureVirtualPaths {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	for _, dir := range dirs {
		t.Run(dir, func(t *testing.T) {
			fixDir := filepath.Join("testdata", "src", dir)
			p, err := loader.LoadDir(fixDir, fixtureVirtualPaths[dir])
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			matchWants(t, fixDir, Run([]*Package{p}))
		})
	}
}

// matchWants holds findings to the "// want" comments of the fixture
// sources in dir: every finding must match one, and every one must be
// matched.
func matchWants(t *testing.T, dir string, findings []Finding) {
	t.Helper()
	wants := parseWants(t, dir)
	for _, f := range findings {
		text := fmt.Sprintf("%s: %s", f.Analyzer, f.Message)
		matched := false
		for _, w := range wants {
			if w.file == filepath.Base(f.File) && w.line == f.Line && w.re.MatchString(text) {
				w.fulfilled = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding at %s:%d: %s", filepath.Base(f.File), f.Line, text)
		}
	}
	for _, w := range wants {
		if !w.fulfilled {
			t.Errorf("missing finding at %s:%d matching %q", w.file, w.line, w.raw)
		}
	}
}

// TestRepositoryLintClean runs the whole suite over the real module:
// the gate CI enforces, enforced again here so `go test ./...` alone
// catches regressions. Every suppression in the tree must carry a
// reason and still be needed.
func TestRepositoryLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is not short")
	}
	_, pkgs := loadModule(t)
	if len(pkgs) < 20 {
		t.Fatalf("loader found only %d packages; module discovery is broken", len(pkgs))
	}
	for _, f := range Run(pkgs) {
		t.Errorf("%s", f)
	}
}

// TestAnalyzerPositions pins exact reported positions for one known
// fixture violation per analyzer, so findings point at the offending
// expression rather than the enclosing statement or file.
func TestAnalyzerPositions(t *testing.T) {
	loader, err := NewLoader(".", "fsoi/...")
	if err != nil {
		t.Fatal(err)
	}
	p, err := loader.LoadDir(filepath.Join("testdata", "src", "detsource"), "fsoi/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	findings := Run([]*Package{p})
	var hit bool
	for _, f := range findings {
		if f.Analyzer == "detsource" && strings.Contains(f.Message, "time.Now") {
			hit = true
			if f.Line == 0 || f.Col == 0 {
				t.Errorf("finding carries no position: %+v", f)
			}
			if filepath.Base(f.File) != "detsource.go" {
				t.Errorf("finding names wrong file: %s", f.File)
			}
		}
	}
	if !hit {
		t.Fatal("expected a detsource time.Now finding")
	}
}
