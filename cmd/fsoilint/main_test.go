package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModuleIsClean: the module itself lints clean, as CI requires.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module type-check is not short")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fsoi/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if stdout.Len() > 0 {
		t.Errorf("findings on the module:\n%s", &stdout)
	}
}

// TestBadInputExitsTwo: a bad flag and a pattern naming no directory
// each fail with one "fsoilint: ..." line and exit 2, like the other
// CLIs.
func TestBadInputExitsTwo(t *testing.T) {
	for _, args := range [][]string{{"-nosuch"}, {"./nosuch/..."}} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		msg := stderr.String()
		if code != 2 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "fsoilint: ") {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and one fsoilint: line", args, code, msg)
		}
		if stdout.Len() > 0 {
			t.Errorf("%v: stdout %q, want nothing", args, &stdout)
		}
	}
}

// TestFindingExitsOne plants an exact float comparison in the internal/
// package of a module of its own: fsoilint prints the finding and exits
// 1.
func TestFindingExitsOne(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":          "module planted\n\ngo 1.22\n",
		"internal/x/x.go": "package x\n\nfunc Same(a, b float64) bool { return a == b }\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()

	var stdout, stderr bytes.Buffer
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, &stderr)
	}
	out := stdout.String()
	if strings.Count(out, "\n") != 1 || !strings.Contains(out, filepath.Join("internal", "x", "x.go")+":3:39: [floateq] floating-point == comparison") {
		t.Errorf("stdout %q, want the one floateq finding in internal/x/x.go", out)
	}
}
