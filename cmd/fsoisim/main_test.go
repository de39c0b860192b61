package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fsoi/internal/system"
)

// sim runs the command in-process and fails the test unless it exits 0.
func sim(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("fsoisim %v: exit %d, stderr %q", args, code, stderr.String())
	}
	return stdout.String()
}

// writeSpec drops a JSON spec into the test's temp directory.
func writeSpec(t *testing.T, json string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "study.json")
	if err := os.WriteFile(path, []byte(json), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestConfigAndFlagsAreOneInputPath pins the two ways -config and flags
// used to disagree: -trace beside -config crashed after the run (the
// file replaced the whole configuration, the print still keyed on the
// flag), and -nodes/-net/-seed beside -config were silently dropped.
func TestConfigAndFlagsAreOneInputPath(t *testing.T) {
	spec := writeSpec(t, `{"app": "jacobi", "scale": 0.02}`)

	out := sim(t, "-config", spec, "-trace", "5")
	_, packets, ok := strings.Cut(out, "\nlast 5 packets:\n")
	if !ok {
		t.Fatalf("-config with -trace 5 printed no packet dump:\n%s", out)
	}
	if rows := strings.Count(packets, "\n") - 1; rows != 5 { // one header line
		t.Fatalf("want 5 traced packets, got %d:\n%s", rows, packets)
	}

	out = sim(t, "-config", spec, "-nodes", "64", "-net", "mesh", "-seed", "7")
	if !strings.HasPrefix(out, "app=jacobi net=mesh nodes=64 scale=0.02\n") {
		t.Fatalf("flags beside -config did not override it:\n%s", out)
	}
	if out == sim(t, "-config", spec, "-nodes", "64", "-net", "mesh") {
		t.Fatal("-seed beside -config was dropped")
	}

	// The same model stated either way is the same run.
	for _, net := range []string{"fsoi", "mesh", "corona"} {
		viaFlags := sim(t, "-app", "jacobi", "-scale", "0.02", "-net", net, "-canonical", "-")
		viaSpec := sim(t, "-config", writeSpec(t, `{"app": "jacobi", "scale": 0.02, "network": "`+net+`"}`), "-canonical", "-")
		if viaFlags != viaSpec {
			t.Fatalf("%s: flags and -config disagree:\n--- flags ---\n%s--- config ---\n%s", net, viaFlags, viaSpec)
		}
	}
}

// TestBadInputExitsTwoWithOneLine: what a flag or spec gets wrong is one
// "fsoisim: ..." line and exit code 2, never a stack trace.
func TestBadInputExitsTwoWithOneLine(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "20"},
		{"-net", "nope"},
		{"-app", "nope"},
		{"-config", writeSpec(t, `{"network": "fsoi"}`), "-net", "nope"},
		{"-config", filepath.Join(t.TempDir(), "missing.json")},
		{"-config", writeSpec(t, `{"network": "mesh", "mesh_bandwidth_frac": 1.5}`)},
		{"-config", writeSpec(t, `{"network": "mesh", "mesh_bandwidth_frac": -0.5}`)},
		{"-config", writeSpec(t, `{"network": "mesh", "router_cycles": -1}`)},
		// Negative numbers used to run (-scale) or run the default.
		{"-scale", "-1"},
		{"-membw", "-5"},
		{"-trace", "-3"},
		{"-config", writeSpec(t, `{"receivers": -2}`)},
		// A node's arrival mask is one word.
		{"-config", writeSpec(t, `{"receivers": 65}`)},
		// A one-slot backoff cap retries colliding senders in lockstep.
		{"-config", writeSpec(t, `{"max_backoff_slots": 1}`)},
		// The sharded engines are withdrawn, and their knobs with them.
		{"-shards", "2"},
		{"-config", writeSpec(t, `{"shards": 4}`)},
		{"-par", "2"},
		{"-config", writeSpec(t, `{"par_workers": 2}`)},
	} {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		msg := stderr.String()
		if code != 2 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "fsoisim: ") {
			t.Errorf("fsoisim %v: exit %d, stderr %q; want exit 2 and one fsoisim: line", args, code, msg)
		}
	}
}

// TestUnfinishedRunExitsOne: a run cut off at MaxCycles still prints its
// metrics and writes its files, then names on one stderr line the cycle it
// reached and the limit, and exits 1.
func TestUnfinishedRunExitsOne(t *testing.T) {
	defer func(old func(*system.Config)) { adjust = old }(adjust)
	adjust = func(cfg *system.Config) { cfg.MaxCycles = 2000 }
	canon := filepath.Join(t.TempDir(), "run.canon")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-app", "jacobi", "-scale", "0.02", "-canonical", canon}, &stdout, &stderr)
	msg := stderr.String()
	if code != 1 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "fsoisim: run did not finish: stopped at cycle 2000 of MaxCycles 2000") {
		t.Fatalf("exit %d, stderr %q: want exit 1 and one line naming cycle 2000 and MaxCycles 2000", code, msg)
	}
	if !strings.Contains(stdout.String(), "(finished=false)") || !strings.Contains(stdout.String(), "canonical metrics   written to") {
		t.Fatalf("stdout lacks the metrics or the canonical file:\n%s", stdout.String())
	}
	if text, err := os.ReadFile(canon); err != nil || len(text) == 0 {
		t.Fatalf("canonical file: %d bytes, %v", len(text), err)
	}
}
